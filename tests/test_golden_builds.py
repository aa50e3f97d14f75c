"""Golden pin of what the experiment drivers and the check targets build.

``test_golden_results`` pins machines the test builds by hand.  This file
pins the machines the library builds: every experiment arm through its
``bench_*`` driver, and every check target through the campaign's
``run_once``.  Moving where a structure is constructed, prefilled or
spawned must leave every digest here unchanged.

* one cell per experiment arm at 2 and at 4 threads, at small sizes;
* one open-loop cell per arm whose bench takes ``traffic``;
* one cell per check target for schedules 0-5 of a seed-3 campaign, with
  variants cycling as in ``run_campaign``, plus one open-loop schedule
  for each target that takes ``--traffic``.

A driver cell digests its ``RunResult``, event count and final cycle; a
check cell digests the outcome's ok flag, kind, op count, final cycle,
recorded decisions and property summary.

To re-pin after an *intended* behaviour change, run::

    PYTHONPATH=src python tests/test_golden_builds.py

and paste the printed table over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import replace
from functools import partial

import pytest

from repro.check import campaign
from repro.harness import EXPERIMENTS
from repro.state import hooks
from test_golden_results import _digest

#: Small sizes, applied wherever the bench takes them.
SIZES = {"ops_per_thread": 6, "txns_per_thread": 6, "num_pages": 32,
         "iterations": 1}
#: Arrival spec of the open-loop cells: skewed keys, two tenants and a
#: short queue, so some arrivals are shed.
TRAFFIC = "poisson:rate=3.0,zipf:s=1.1,tenants=2,queue=4"
CAMPAIGN_SEED = 3
SCHEDULES = range(6)


def _arm_cell(exp_id: str, arm: str, threads: int, traffic: str = "") -> str:
    exp = EXPERIMENTS[exp_id]
    params = inspect.signature(exp.bench).parameters
    kw = {**exp.common, **exp.variants[arm],
          **{k: v for k, v in SIZES.items() if k in params}}
    if traffic:
        kw["traffic"] = traffic
    seen = []

    def hook(m):
        m.run()
        seen.append((m.sim.events_processed, m.sim.now))

    hooks.run_hook = hook
    try:
        res = exp.bench(threads, **kw)
    finally:
        hooks.run_hook = None
    (events, now), = seen
    return _digest(res, events, now)


def _check_cell(name: str, index: int, traffic: str = "") -> str:
    target = campaign.TARGETS[name]
    variant, base_cfg = target.configs[index % len(target.configs)]
    cfg = replace(base_cfg, seed=campaign._machine_seed(CAMPAIGN_SEED, index))
    out = campaign.run_once(target, variant, cfg,
                            campaign._strategy_for(CAMPAIGN_SEED, index),
                            traffic=traffic)
    blob = json.dumps([out.ok, out.kind, out.ops, out.cycles,
                       sorted(out.decisions.items()), out.properties],
                      sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _cells() -> dict:
    """Cell id -> zero-argument callable returning the cell's digest."""
    cells = {}
    for exp_id, exp in EXPERIMENTS.items():
        takes_traffic = "traffic" in inspect.signature(exp.bench).parameters
        for arm in exp.variants:
            for threads in (2, 4):
                cells[f"arm-{exp_id}-{arm}-t{threads}"] = partial(
                    _arm_cell, exp_id, arm, threads)
            if takes_traffic:
                cells[f"open-{exp_id}-{arm}-t4"] = partial(
                    _arm_cell, exp_id, arm, 4, TRAFFIC)
    for name in campaign.TARGETS:
        for index in SCHEDULES:
            cells[f"check-{name}-s{index}"] = partial(_check_cell, name,
                                                      index)
        if campaign.TARGETS[name].open_loop:
            cells[f"check-{name}-traffic-s1"] = partial(_check_cell, name, 1,
                                                        TRAFFIC)
    return cells


CELLS = _cells()

GOLDEN = {
    "arm-a1_prioritization-lease-t2": "9a2d02e114c8865dbd65e410",
    "arm-a1_prioritization-lease-t4": "e1da0e8d4e6dfba7a1da472e",
    "arm-a2_lease_time-lease_1k-t2": "5480bb0a79606d3e96253d0d",
    "arm-a2_lease_time-lease_1k-t4": "f2e9d11555551e18922d4154",
    "arm-a2_lease_time-lease_20k-t2": "5480bb0a79606d3e96253d0d",
    "arm-a2_lease_time-lease_20k-t4": "f2e9d11555551e18922d4154",
    "arm-a3_misuse-misuse-t2": "c760f81858d9b75cc57e4085",
    "arm-a3_misuse-misuse-t4": "31b382b2ae05f7b6fd653382",
    "arm-a3_misuse-proper-t2": "31d4d98caebc54414da79ffa",
    "arm-a3_misuse-proper-t4": "9b3aa52aa5a4511cee319d6d",
    "arm-cluster_shards-counter-t2": "2124754e298cefc71b8207de",
    "arm-cluster_shards-counter-t4": "e9b52506bad2f56ac5c645f2",
    "arm-cluster_shards-treiber-t2": "03287673691aad5aac720749",
    "arm-cluster_shards-treiber-t4": "56edd2b97ad0a41e3d1fe656",
    "arm-counter-tts+lease-t2": "31d4d98caebc54414da79ffa",
    "arm-counter-tts+lease-t4": "9b3aa52aa5a4511cee319d6d",
    "arm-counter-tts-t2": "6bcbd0a134dabf748b7efbcf",
    "arm-counter-tts-t4": "91c1285c110c89ddba60f2b2",
    "arm-e1_backoff-backoff-t2": "7ea1fbeaf47b66fb5cd3a94c",
    "arm-e1_backoff-backoff-t4": "d986c7b3affd40e33bb125dd",
    "arm-e1_backoff-base-t2": "e36576ba936574a85440d981",
    "arm-e1_backoff-base-t4": "8a1232dc5408268dd53e4d1b",
    "arm-e1_backoff-lease-t2": "5480bb0a79606d3e96253d0d",
    "arm-e1_backoff-lease-t4": "f2e9d11555551e18922d4154",
    "arm-e2_low_contention_bst-base-t2": "7e8bc23a0b71bfc9e46cfe94",
    "arm-e2_low_contention_bst-base-t4": "9b09f68cad1fbc108e7518a5",
    "arm-e2_low_contention_bst-lease-t2": "e6faecef430cc1f031f4bff9",
    "arm-e2_low_contention_bst-lease-t4": "c6814e0f2612a74b141e7a8e",
    "arm-e2_low_contention_hashtable-base-t2": "fcf4a099c73be1aefbdf70f8",
    "arm-e2_low_contention_hashtable-base-t4": "91cfe6b83598ba2ddb29a87e",
    "arm-e2_low_contention_hashtable-lease-t2": "08534de29a85961c471ed917",
    "arm-e2_low_contention_hashtable-lease-t4": "27039d3bd0a9779155b4b9e3",
    "arm-e2_low_contention_list-base-t2": "796922db215428d794eb0f9b",
    "arm-e2_low_contention_list-base-t4": "757762ecb635adae2a8ab23d",
    "arm-e2_low_contention_list-lease-t2": "cd9aaa477d830f86adc2b407",
    "arm-e2_low_contention_list-lease-t4": "3ddbd3b146c971184b411586",
    "arm-e2_low_contention_skiplist-base-t2": "7ccd58744d2b87a16d6d56ab",
    "arm-e2_low_contention_skiplist-base-t4": "1a84cfcdc636d9b21d201ab6",
    "arm-e2_low_contention_skiplist-lease-t2": "6192fc18f044cea175dd5b00",
    "arm-e2_low_contention_skiplist-lease-t4": "ddc04282da8ecba3fb547d7a",
    "arm-e3_messages_per_op-base-t2": "e36576ba936574a85440d981",
    "arm-e3_messages_per_op-base-t4": "8a1232dc5408268dd53e4d1b",
    "arm-e3_messages_per_op-lease-t2": "5480bb0a79606d3e96253d0d",
    "arm-e3_messages_per_op-lease-t4": "f2e9d11555551e18922d4154",
    "arm-fig2_stack-base-t2": "e36576ba936574a85440d981",
    "arm-fig2_stack-base-t4": "8a1232dc5408268dd53e4d1b",
    "arm-fig2_stack-lease-t2": "5480bb0a79606d3e96253d0d",
    "arm-fig2_stack-lease-t4": "f2e9d11555551e18922d4154",
    "arm-fig3_counter-clh-t2": "f71521f626960b738453ce1b",
    "arm-fig3_counter-clh-t4": "cd1bd1c05b6b08756bac1de1",
    "arm-fig3_counter-hticket-t2": "1861560ca00689091ae5af05",
    "arm-fig3_counter-hticket-t4": "9e2dcc790a4f7a94307ac1aa",
    "arm-fig3_counter-ticket-t2": "5661f626af56312b4a545a0e",
    "arm-fig3_counter-ticket-t4": "d10f6900a3241aa2c4026c3a",
    "arm-fig3_counter-tts+lease-t2": "31d4d98caebc54414da79ffa",
    "arm-fig3_counter-tts+lease-t4": "9b3aa52aa5a4511cee319d6d",
    "arm-fig3_counter-tts-t2": "6bcbd0a134dabf748b7efbcf",
    "arm-fig3_counter-tts-t4": "91c1285c110c89ddba60f2b2",
    "arm-fig3_pq-globallock-t2": "7a06c88d048464c59fc6d842",
    "arm-fig3_pq-globallock-t4": "526ae3b0f7402a2d3bc1b7b9",
    "arm-fig3_pq-lease-t2": "9d2bb90677aecd866e67f205",
    "arm-fig3_pq-lease-t4": "be4efd8c570961e491783f53",
    "arm-fig3_pq-pugh-t2": "a1d5f407fdf4dcb9becde3cb",
    "arm-fig3_pq-pugh-t4": "3799c9c88dd1d44848281194",
    "arm-fig3_queue-base-t2": "3621db0868294a7cbd95acf2",
    "arm-fig3_queue-base-t4": "e0d895acab2b2f6fa97d4cba",
    "arm-fig3_queue-lease-t2": "9a2d02e114c8865dbd65e410",
    "arm-fig3_queue-lease-t4": "e1da0e8d4e6dfba7a1da472e",
    "arm-fig3_queue-multilease-t2": "a5e829b1b0019b555e191af6",
    "arm-fig3_queue-multilease-t4": "59232f33093e82c83146e3bf",
    "arm-fig4_multiqueue-base-t2": "2d6725e263ec76e6f241dc2c",
    "arm-fig4_multiqueue-base-t4": "eb87a873bff114730a827c29",
    "arm-fig4_multiqueue-lease-t2": "0ffaf9070ad39744a8624d26",
    "arm-fig4_multiqueue-lease-t4": "0982dca460fcc602745affa0",
    "arm-fig4_tl2-multi-t2": "a67f142b8cabda79a3e59c5a",
    "arm-fig4_tl2-multi-t4": "eaf131f6a39a8cc7e331eb44",
    "arm-fig4_tl2-none-t2": "5e483b29b34fe8007d96b7c9",
    "arm-fig4_tl2-none-t4": "6fdf3e2ef99bde94112be955",
    "arm-fig4_tl2-single-t2": "761fbcffd46c1f092441eda9",
    "arm-fig4_tl2-single-t4": "732c2c965e2312da0fa74601",
    "arm-fig5_hw_sw_multilease-hardware-t2": "a67f142b8cabda79a3e59c5a",
    "arm-fig5_hw_sw_multilease-hardware-t4": "eaf131f6a39a8cc7e331eb44",
    "arm-fig5_hw_sw_multilease-software-t2": "c648719bab0a3b6d0757faf8",
    "arm-fig5_hw_sw_multilease-software-t4": "73cef0335f58f6a8e7a7ec16",
    "arm-fig5_pagerank-base-t2": "4a974e27ef802cb1a4538d18",
    "arm-fig5_pagerank-base-t4": "323369096c04b57a007828ae",
    "arm-fig5_pagerank-lease-t2": "b49538f2fd3b101e0c8b76da",
    "arm-fig5_pagerank-lease-t4": "9668d060360482e1026f2ded",
    "arm-s1_snapshot-double_collect-t2": "271051456af7ff3a367e6a87",
    "arm-s1_snapshot-double_collect-t4": "b9907701e2acc151e9268038",
    "arm-s1_snapshot-lease-t2": "a20a8a3b494e426fbaf7a835",
    "arm-s1_snapshot-lease-t4": "1f09a298ce39a5549896a943",
    "arm-skiplist-base-t2": "7ccd58744d2b87a16d6d56ab",
    "arm-skiplist-base-t4": "1a84cfcdc636d9b21d201ab6",
    "arm-skiplist-lease-t2": "6192fc18f044cea175dd5b00",
    "arm-skiplist-lease-t4": "ddc04282da8ecba3fb547d7a",
    "arm-sync_ablation-counter:adaptive-lease-t2": "512b42968786480a71bfe4e8",
    "arm-sync_ablation-counter:adaptive-lease-t4": "3f89dc1f661f37a8c77bea61",
    "arm-sync_ablation-counter:baseline-t2": "e0973e7bcea2d93ae3c34780",
    "arm-sync_ablation-counter:baseline-t4": "843e88fde8797a9c728dfe59",
    "arm-sync_ablation-counter:cas-backoff-t2": "c28b63eac5cfa3de93ce3ea8",
    "arm-sync_ablation-counter:cas-backoff-t4": "a81233f493cafff337bd14a4",
    "arm-sync_ablation-counter:lease-t2": "a43c21b040c3214742796343",
    "arm-sync_ablation-counter:lease-t4": "cc7790120914107f1fdcc28f",
    "arm-sync_ablation-counter:mcas-helping-t2": "5c4cec409369990b6c65b491",
    "arm-sync_ablation-counter:mcas-helping-t4": "01bc3b0076f3f5c0ce644eea",
    "arm-sync_ablation-counter:reciprocating-t2": "86ee7cb65942d7634686ea04",
    "arm-sync_ablation-counter:reciprocating-t4": "a62715f4e471d8346109555d",
    "arm-sync_ablation-msqueue:adaptive-lease-t2": "82051b0a352e780cd9d54bd3",
    "arm-sync_ablation-msqueue:adaptive-lease-t4": "b34ac878dd2f49d5ef457fe3",
    "arm-sync_ablation-msqueue:baseline-t2": "06e35ddbea67ed67d1e777a0",
    "arm-sync_ablation-msqueue:baseline-t4": "ee6bfc9df958394ad2c21a55",
    "arm-sync_ablation-msqueue:cas-backoff-t2": "3854903c28e821c10a9c37df",
    "arm-sync_ablation-msqueue:cas-backoff-t4": "7674da14d9e7b0e2f9ab237c",
    "arm-sync_ablation-msqueue:lease-t2": "5f190712dd8c75f1b8b147a6",
    "arm-sync_ablation-msqueue:lease-t4": "3050e8bb3234d57a16536743",
    "arm-sync_ablation-msqueue:mcas-helping-t2": "c0819cc25a1c7b5e3a7d8c49",
    "arm-sync_ablation-msqueue:mcas-helping-t4": "2f2c8c134542387c8b4b7a3f",
    "arm-sync_ablation-msqueue:reciprocating-t2": "690d37d233d36fcd50cd7fdc",
    "arm-sync_ablation-msqueue:reciprocating-t4": "50deae044205467064946fb0",
    "arm-sync_ablation-treiber:adaptive-lease-t2": "bd7e2b337105d563e471897f",
    "arm-sync_ablation-treiber:adaptive-lease-t4": "7a1d46fcaf69cad8df426674",
    "arm-sync_ablation-treiber:baseline-t2": "ec0cf37595384423d089226b",
    "arm-sync_ablation-treiber:baseline-t4": "ff54fb5fb81f968ee67a2b62",
    "arm-sync_ablation-treiber:cas-backoff-t2": "e098094bf23709f93b150b3d",
    "arm-sync_ablation-treiber:cas-backoff-t4": "898e80760f1fa9437937c197",
    "arm-sync_ablation-treiber:lease-t2": "b4bf79d269659faa7eb2a15d",
    "arm-sync_ablation-treiber:lease-t4": "9cd90cb82d6ba2d1d5fbe687",
    "arm-sync_ablation-treiber:mcas-helping-t2": "50193e936cc9cc65726fcf54",
    "arm-sync_ablation-treiber:mcas-helping-t4": "0424e7496780b2a5341987ae",
    "arm-sync_ablation-treiber:reciprocating-t2": "263c4040003a2f78afc15fbc",
    "arm-sync_ablation-treiber:reciprocating-t4": "0c58fcd2698fbb1a9d8ff17f",
    "arm-treiber-base-t2": "e36576ba936574a85440d981",
    "arm-treiber-base-t4": "8a1232dc5408268dd53e4d1b",
    "arm-treiber-lease-t2": "5480bb0a79606d3e96253d0d",
    "arm-treiber-lease-t4": "f2e9d11555551e18922d4154",
    "check-bst-s0": "661734e3e8560017dcd1a681",
    "check-bst-s1": "65a0bebce103e65cba7f56f3",
    "check-bst-s2": "8701fb7e8233addcc4634719",
    "check-bst-s3": "80ad436979f81a34adc9cabb",
    "check-bst-s4": "bda897bc388713c09c43bbb4",
    "check-bst-s5": "49b850e1aa983cad9d674d49",
    "check-bst-traffic-s1": "3db9bc8913e2fe45c0e9673a",
    "check-counter-s0": "dcc9fc6f035049334be1f43e",
    "check-counter-s1": "693e52e758333eeed1a72054",
    "check-counter-s2": "c3ea6077eed18e044f9f6b27",
    "check-counter-s3": "1aa008ac6734c34a87a940ad",
    "check-counter-s4": "bcd3f9fc4731d8f192bfd408",
    "check-counter-s5": "b2492b029637cae03087d4fe",
    "check-counter-traffic-s1": "5971d9220a02fb685d9d9932",
    "check-harris-s0": "e593a532640a3121e4cfc7ff",
    "check-harris-s1": "422d5e94e67fe75973f55c45",
    "check-harris-s2": "477b30155b75bd4e36da1255",
    "check-harris-s3": "55dc38e60a1425929fcd1d03",
    "check-harris-s4": "01bc176380fe8497eeb96936",
    "check-harris-s5": "83880875dce1edc1a40326f1",
    "check-harris-traffic-s1": "c343554ea9cb2aefe7165386",
    "check-hashtable-s0": "0a4b7c95ad4322d161c93723",
    "check-hashtable-s1": "29b93b29d30be90dd3a742b0",
    "check-hashtable-s2": "571a04dacfab7e462a6b280e",
    "check-hashtable-s3": "6c589d27a91e7ebbcf2f0b08",
    "check-hashtable-s4": "64b28c68cf7cdcc94096875d",
    "check-hashtable-s5": "26f76c0b803a5d1253c42f3a",
    "check-hashtable-traffic-s1": "4b1889eb871243631b0fc845",
    "check-lotan-s0": "fbad6a5efabd3eb015f4a39c",
    "check-lotan-s1": "dccb7c31cdfe852d627cb8e3",
    "check-lotan-s2": "dc0d0257bdd4fb0464804f9d",
    "check-lotan-s3": "3843430238b403684d966106",
    "check-lotan-s4": "f1bdbaa6d42ca32a71524580",
    "check-lotan-s5": "ef8564672bf56c60faabc8fc",
    "check-msqueue-s0": "d7784ba62e7c2d553d2efbb7",
    "check-msqueue-s1": "53e914df10e1c85f4aa94712",
    "check-msqueue-s2": "9c9cae745a0c673bba337c1b",
    "check-msqueue-s3": "3f9dffda3b9cc193a1d0d91f",
    "check-msqueue-s4": "d817c3b42f9dca26f449ef43",
    "check-msqueue-s5": "42eba983120b1ce8ff0330b8",
    "check-multilease-s0": "4454bb403d2bb06073c661fd",
    "check-multilease-s1": "de677ec9679ac9f447fa8d4c",
    "check-multilease-s2": "afba85fdd4a1b8be6a31c0ca",
    "check-multilease-s3": "7547558d6f73866605e2642e",
    "check-multilease-s4": "cc2009cd088658262d09104f",
    "check-multilease-s5": "26c45a3185107d30a181279a",
    "check-pq-s0": "4777c8942368717eb9f889d2",
    "check-pq-s1": "203da4f5aff1256365ecda80",
    "check-pq-s2": "f2425cac0b6853fe09ecdb0a",
    "check-pq-s3": "74306728b6d18cbf5e3c1186",
    "check-pq-s4": "4bfeb067e0f21c969fb7ac56",
    "check-pq-s5": "7cd60326d20d14a06c8cb1f2",
    "check-skiplist-s0": "2fadf3ed6117ca452cee5527",
    "check-skiplist-s1": "7e12497f2243047ba8f021e9",
    "check-skiplist-s2": "d1a4316adc6a716fc73b03ac",
    "check-skiplist-s3": "4950654bccbb1782908a1297",
    "check-skiplist-s4": "79b62ba0a9a0a0ecaf861aca",
    "check-skiplist-s5": "1bcb208d12eed9e869047565",
    "check-skiplist-traffic-s1": "baf040674161e07a439ef2e9",
    "check-sync_zoo_broken-s0": "e7f2ee3291316f7cccf24a6a",
    "check-sync_zoo_broken-s1": "025d5d6da21e3b1c4759f631",
    "check-sync_zoo_broken-s2": "8ef8911c3dd85272246d0cbd",
    "check-sync_zoo_broken-s3": "615322d8305c9aa7742c0613",
    "check-sync_zoo_broken-s4": "2483330d53272847b11395ef",
    "check-sync_zoo_broken-s5": "c4e6adabcad09882c7f210bc",
    "check-sync_zoo_counter-s0": "e05c3366ad3d6a287138802b",
    "check-sync_zoo_counter-s1": "2dc20744c4f405114b4c1bb9",
    "check-sync_zoo_counter-s2": "1fdd4f840ecb2c30e22241b4",
    "check-sync_zoo_counter-s3": "fef7ab8733f15b37b0dbbc11",
    "check-sync_zoo_counter-s4": "394ce614a458cfe062b3eba3",
    "check-sync_zoo_counter-s5": "d6dfa760f765cb6e97a55164",
    "check-sync_zoo_msqueue-s0": "faf8760ad6a555ddfa97c58c",
    "check-sync_zoo_msqueue-s1": "7ff2a20c4221e81a8188192d",
    "check-sync_zoo_msqueue-s2": "ac7a2a5a544f97a4b2d1d24c",
    "check-sync_zoo_msqueue-s3": "b8ea6f81ce181590c193556a",
    "check-sync_zoo_msqueue-s4": "b841f387834073e5c7f0e442",
    "check-sync_zoo_msqueue-s5": "e2ca2072051c48efdcfc3b79",
    "check-sync_zoo_treiber-s0": "e05c3366ad3d6a287138802b",
    "check-sync_zoo_treiber-s1": "6f2ddda7f921a5cbf69b5a5a",
    "check-sync_zoo_treiber-s2": "798e0c55dda5eb195bec9e95",
    "check-sync_zoo_treiber-s3": "939edd729545d8fb91074967",
    "check-sync_zoo_treiber-s4": "8c5cc15b46895d41e92e6eba",
    "check-sync_zoo_treiber-s5": "838d252bd640969f83a45ffd",
    "check-treiber-s0": "f61a1d6fc0a2e4f20f389d98",
    "check-treiber-s1": "f1882100ed7f47f6879a31d8",
    "check-treiber-s2": "101d88df716fb5b5247f75c2",
    "check-treiber-s3": "939edd729545d8fb91074967",
    "check-treiber-s4": "eb5e455836edd06dcf8c4fd4",
    "check-treiber-s5": "d8ddfc51474d7eb5a744f9a5",
    "check-treiber-traffic-s1": "cf65f158c90853c3e945b93e",
    "open-a2_lease_time-lease_1k-t4": "a98b9945768929036eddee62",
    "open-a2_lease_time-lease_20k-t4": "a98b9945768929036eddee62",
    "open-a3_misuse-misuse-t4": "7aa76325188d84d3e9d3ddbe",
    "open-a3_misuse-proper-t4": "79583144afb0f80015592c0d",
    "open-cluster_shards-counter-t4": "fe7c6b4364efb397b4865be4",
    "open-cluster_shards-treiber-t4": "5314e613b1d805676b7e5409",
    "open-counter-tts+lease-t4": "79583144afb0f80015592c0d",
    "open-counter-tts-t4": "9849fdbd91ec145b203c9baf",
    "open-e1_backoff-backoff-t4": "64e27bed3a3864e600732b97",
    "open-e1_backoff-base-t4": "bfeed91d2c35315185ecdf97",
    "open-e1_backoff-lease-t4": "a98b9945768929036eddee62",
    "open-e2_low_contention_skiplist-base-t4": "fa30336cbba4575f01f21a1b",
    "open-e2_low_contention_skiplist-lease-t4": "0d98e47d2879a7f5a2ec6e4c",
    "open-e3_messages_per_op-base-t4": "bfeed91d2c35315185ecdf97",
    "open-e3_messages_per_op-lease-t4": "a98b9945768929036eddee62",
    "open-fig2_stack-base-t4": "bfeed91d2c35315185ecdf97",
    "open-fig2_stack-lease-t4": "a98b9945768929036eddee62",
    "open-fig3_counter-clh-t4": "5ba3273a60c504087b503237",
    "open-fig3_counter-hticket-t4": "e68f329270b6789ec0f2b480",
    "open-fig3_counter-ticket-t4": "6f591920f42a04f257ca148e",
    "open-fig3_counter-tts+lease-t4": "79583144afb0f80015592c0d",
    "open-fig3_counter-tts-t4": "9849fdbd91ec145b203c9baf",
    "open-skiplist-base-t4": "fa30336cbba4575f01f21a1b",
    "open-skiplist-lease-t4": "0d98e47d2879a7f5a2ec6e4c",
    "open-treiber-base-t4": "bfeed91d2c35315185ecdf97",
    "open-treiber-lease-t4": "a98b9945768929036eddee62",
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_golden_build(cell):
    assert CELLS[cell]() == GOLDEN[cell]


def test_golden_table_covers_grid():
    assert set(GOLDEN) == set(CELLS)


if __name__ == "__main__":
    print("GOLDEN = {")
    for cid in sorted(CELLS):
        print(f'    "{cid}": "{CELLS[cid]()}",')
    print("}")
