"""Golden reports: SHA-256 digests of the report files ``cli.main`` writes.

The digests were recorded from the reports of commit 7508ee2, and the
tight-memory ones from e10539b. A change
that does not declare a behaviour change must leave every report byte for
byte as it was, so these digests must not be refreshed to make a refactor
pass. The data_intensive demo is pinned by perfbench/expected.json.

RECORDS pins more than a report shows: per run, every record in completion
order (node, finished_at, billed GB-s), read through the completion hook,
the makespan and the replication log. Those digests were recorded at commit 7fcbfec, and the two of
round_robin and data_aware with stealing at 3f63633. No queue in those two
runs reaches two entries, so every steal tick only draws and their records
equal those of the same strategies without stealing. The ``tight/`` pins run
the same two with memory for two containers per node (mem_capacity 256), so
queues grow and both steal; they were recorded at 67569d3.

MATRIX pins the reports of every shipped demo scenario at seeds 1-3, csv
and json, from ``compare`` when the scenario lists two or more strategies
and from ``run`` otherwise. ENGINE_LOGS pins, per seed-1 run of each demo
scenario, the engine's log of every fired occurrence as (fire_at, seq,
reference.event_label): the order and the seq of each event, which a change
to the event engine must keep. Both were recorded at commit 6ee7d06.

DEMO_STDOUT pins what each ``demos/*.py`` script prints: the phase
timelines, the strategy table, the steal makespans and the replication
actions. Those digests were recorded at commit c6d8bc4.

MIXED pins ``tests/fixtures/mixed.yaml``: its compare csv and json, the
RECORDS digest of each of its runs, and the engine log of each seed-1 run.
Its two strategies score without a data term, cap the queue at 2 and
steal, so its runs queue, steal, replicate, expire containers mid-run and
fail at the execution cap. Those digests were recorded at commit b894ea8.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import dispatchsim
from dispatchsim.cli import main
from dispatchsim.config import load_scenario, parse_scenario
from dispatchsim.runner import Simulation, prepare_workload, run_one
from dispatchsim.strategies import STRATEGY_NAMES

from conftest import scenario_dict
from reference import event_label, simulate
from test_acceptance import DATA_INTENSIVE

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
MIXED_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "mixed.yaml"
MINIMAL = DEMOS / "minimal.yaml"
DEMO_SCENARIOS = sorted(DEMOS.glob("*.yaml"))
SEEDS = (1, 2, 3)

GOLDEN = {
    "minimal/report.csv":
        "afd8afe032454ee68110b09d69a897563e9f4a667f1917390171a2bbf1a0de8f",
    "data_intensive/compare.csv":
        "085ddeeeb6d3d0b597faae40703a4e2df7dd753abd505ff969986dbc54425a97",
    "data_intensive/compare.json":
        "c24a35d39a009bf9ebd1ebf9c47fef3aa804ec3d0e6ff30a6872f8606fa19ba6",
    "tight/compare.csv":
        "9c99ecea6bb33e06559d1cb2c05e65b739678345972b95f2f1427886f0f3a16b",
    "tight/compare.json":
        "49e00a747e176c1dfec7c3c70e1bed3a01d2f8c778391c441217629e5f011746",
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_minimal_report_is_unchanged(tmp_path):
    out = tmp_path / "minimal"
    assert main(["run", str(MINIMAL), "--out-dir", str(out)]) == 0
    assert _digest(out / "report.csv") == GOLDEN["minimal/report.csv"]


def _compare_digests(tmp_path: Path, tag: str, cluster: dict, workload: dict) -> list[str]:
    """Digests of the compare csv and json for DATA_INTENSIVE with the
    cluster and workload keys replaced, under every registered strategy
    plus least_loaded+steal."""
    strategies = [{"name": name} for name in STRATEGY_NAMES]
    strategies.append({"name": "least_loaded", "work_stealing": True})
    raw = scenario_dict(**DATA_INTENSIVE, strategies=strategies,
                        output={"formats": ["csv", "json"]})
    raw["cluster"].update(cluster)
    raw["workload"].update(workload)
    cfg = tmp_path / f"{tag}.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / tag
    assert main(["compare", str(cfg), "--out-dir", str(out)]) == 0
    return [_digest(out / "compare.csv"), _digest(out / "compare.json")]


def test_compare_data_intensive_reports_are_unchanged(tmp_path):
    assert _compare_digests(tmp_path, "data_intensive", {}, {}) == [
        GOLDEN["data_intensive/compare.csv"], GOLDEN["data_intensive/compare.json"]]


def test_compare_tight_memory_reports_are_unchanged(tmp_path):
    # Three functions competing for two containers' worth of memory, with a
    # short keep-alive: expiries fire mid-run and drain queued work.
    functions = [{"name": f"f{i}", "code_size": 10, "flavor": 128, "compute_ms": 10 * i}
                 for i in (1, 2, 3)]
    assert _compare_digests(tmp_path, "tight", {"mem_capacity": 256, "keep_alive_ms": 40},
                            {"functions": functions}) == [
        GOLDEN["tight/compare.csv"], GOLDEN["tight/compare.json"]]


RECORDS = {
    "round_robin":
        "29bb17f153aed9c13c6de24dd02b3a963f361ec9132df63e36b3ac1f2c0c21e2",
    "least_loaded":
        "6add5114fba55cdfc84c790a898641e23e1ae74cdc04f10cb839eb6003efdf15",
    "hash_affinity":
        "de87ffe4107a80cc664cff898986ae07483bbc4cbe624b8fa5e467b459a587fe",
    "mcgrath_queues":
        "88583a06ea3860d0bb8d943d6062242782711af8e9dc37b6f29aa51c4127e73e",
    "data_aware":
        "1be9e7973cd848ac2becc4d8d365a0a80ce763cdc7922d48649dced627b252ba",
    "proactive_cluster":
        "d665972b415ece2891a9316d9424482a773d4ec802b93e4ba9c7f0f19cf0b14d",
    "least_loaded+steal":
        "6bf826614592b3a587c5c367b492be9ec9b306cad47a8ff9a21a57c8f1d90974",
    "hash_affinity+steal":
        "6d05935b66af97e53deb93deb10494f7207043765f8d7fcac4ced18e03bbcc6c",
    "round_robin+steal":
        "29bb17f153aed9c13c6de24dd02b3a963f361ec9132df63e36b3ac1f2c0c21e2",
    "data_aware+steal":
        "1be9e7973cd848ac2becc4d8d365a0a80ce763cdc7922d48649dced627b252ba",
    "tight/round_robin+steal":
        "c42503f70dbe9bbefaf33e8952d3aeb5c9adda1913d6358598de603739fa54f2",
    "tight/data_aware+steal":
        "072da5561ffe379641346ec93e5adb05610134fed2d51f4e01480f3870a514b7",
}


def run_records_digest(scenario, strategy_cfg, seed):
    """(RunResult, RECORDS digest) of one run. The completion hook gives
    each record in completion order: its node, its finish (arrival plus
    phase sum) and its billed GB-s."""
    catalog, trace = prepare_workload(scenario, seed)
    arrivals = trace.arrivals
    h = hashlib.sha256()

    def on_complete(index, node, phases, billed, failed):
        h.update(f"{node},{arrivals[index] + sum(phases)},{billed!r}\n".encode())

    result = run_one(scenario, strategy_cfg, seed, catalog, trace, on_complete=on_complete)
    h.update(f"makespan={result.makespan_ms}\n".encode())
    for now, a in result.replication_log:
        h.update(f"{now},{a.object_id},{a.node},{a.placed},{a.note}\n".encode())
    return result, h.hexdigest()


def test_data_intensive_records_are_unchanged():
    strategies = [{"name": name} for name in STRATEGY_NAMES]
    strategies += [{"name": name, "work_stealing": True}
                   for name in ("least_loaded", "hash_affinity", "round_robin", "data_aware")]
    scenario = parse_scenario(scenario_dict(**dict(DATA_INTENSIVE, seeds=[1]),
                                            strategies=strategies))
    runs = [run_records_digest(scenario, cfg, 1) for cfg in scenario.strategies]
    assert ({r.strategy: digest for r, digest in runs}
            == {k: v for k, v in RECORDS.items() if not k.startswith("tight/")})


def test_tight_data_intensive_steal_records_are_unchanged():
    # Two 128 MB containers per node: queues reach two entries, so the
    # steal ticks take work, and data_aware scores over several queue lengths.
    tight = dict(DATA_INTENSIVE, seeds=[1],
                 cluster=dict(DATA_INTENSIVE["cluster"], mem_capacity=256))
    strategies = [{"name": name, "work_stealing": True} for name in ("round_robin", "data_aware")]
    scenario = parse_scenario(scenario_dict(**tight, strategies=strategies))
    runs = [run_records_digest(scenario, cfg, 1) for cfg in scenario.strategies]
    assert all(r.steals > 0 for r, _ in runs)
    assert ({f"tight/{r.strategy}": digest for r, digest in runs}
            == {k: v for k, v in RECORDS.items() if k.startswith("tight/")})


MATRIX = {
    "data_intensive/1/compare.csv":
        "a21921bdc47480d639b5742405ecc55fc36db65d7cab4e9a71c2d37487c0098f",
    "data_intensive/1/compare.json":
        "94be61e9bf4ba201b4876c44cf14201db5698506ee3a0052a24936ab1af20049",
    "data_intensive/2/compare.csv":
        "0011e3d1e31724d556af60758bc5b6b992cafef447f1aae71bca1c130052fccb",
    "data_intensive/2/compare.json":
        "dd4376ace09988be3e72b6d52da98b11d48ad5ffec19b086543c8420180a97d5",
    "data_intensive/3/compare.csv":
        "3bad27cbdd42c859e85c00177421ea49fb16ecc06c9ad42208feb16268182740",
    "data_intensive/3/compare.json":
        "810db0f9468fd8a08d0ec3c68fb180bb20eec6e43ae1dc86ce95f720b4c75e59",
    "minimal/1/report.csv":
        "afd8afe032454ee68110b09d69a897563e9f4a667f1917390171a2bbf1a0de8f",
    "minimal/1/report.json":
        "c197d4d5ab23a5b8297e00e8586c87dc224be99fd77815ca26a74618498fe2b4",
    "minimal/2/report.csv":
        "cc27fe65e57065e40646796e036c5bb056b40aa48d2568bd21dbabd6ce2a1bad",
    "minimal/2/report.json":
        "7290db8cf4b5988756c33c54e0ed5cc77c650beb410d134d44d53bfb76578ed4",
    "minimal/3/report.csv":
        "6c0f38f1b64849a9ddb7336b9f1422132cf560aafffbd4b044f3e2a739647cea",
    "minimal/3/report.json":
        "672370846e82cf4383ea57b789093bcf8c0d436a685d189e8a01aeabeddb3769",
    "tight_memory/1/compare.csv":
        "ba866bedfcdad7be053ac003c2da78a426fd44894e942c5e3fc81160dde3990c",
    "tight_memory/1/compare.json":
        "74c4e38265b4a52824071816a58b66fa0ffa5ae7d35dc15fe96a941a529df6e6",
    "tight_memory/2/compare.csv":
        "3f862155df7df7fe65c808da600cba59d2e24436da2c8a17acbd7a52044c073d",
    "tight_memory/2/compare.json":
        "cde1f71458767aff8f1acdfa2bc67901f8463e70208e66b1e2a635b536972a63",
    "tight_memory/3/compare.csv":
        "9fea9397296f0d193d6a079499c6fae7ef69a91bb809ec4c02a76f4e9517f387",
    "tight_memory/3/compare.json":
        "56a7a472d71dbb389125ba2ec0fa3bd9c5b7c49fa5323dfe2c55b68d448dec8e",
}


def _demo_report_digests(out: Path, path: Path, seed: int) -> dict[str, str]:
    """Digests of the csv and json reports of one demo scenario at one seed."""
    command = "compare" if len(load_scenario(path).strategies) >= 2 else "run"
    stem = "compare" if command == "compare" else "report"
    assert main([command, str(path), "--seed", str(seed), "--out-dir", str(out),
                 "output.formats=[csv, json]"]) == 0
    return {f"{stem}.{fmt}": _digest(out / f"{stem}.{fmt}") for fmt in ("csv", "json")}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", DEMO_SCENARIOS, ids=lambda p: p.stem)
def test_demo_reports_are_unchanged(tmp_path, path, seed):
    digests = _demo_report_digests(tmp_path, path, seed)
    assert digests == {name: MATRIX[f"{path.stem}/{seed}/{name}"] for name in digests}


ENGINE_LOGS = {
    "data_intensive/round_robin":
        "ec16c78dde2eec914eaeb9cddda31b63b66f34a89f6ca09db55ceeee7e52a0d7",
    "data_intensive/data_aware":
        "d4e09250f95719f6f8c8abdcec97c8f0cf7ab65e1d6ad7c042b4be4e066718bf",
    "data_intensive/proactive_cluster":
        "396b9363dda09317fa823e1d9afb300115e56a4577496db77e9f35f1a6752a54",
    "data_intensive/hash_affinity+steal":
        "cdb46f6ea757ba4553a7cd3dfd12b31a3236f7ef673abe2c8b01d19f4c3e45bb",
    "minimal/round_robin":
        "e9579f745263c25b006d40590b437cf4684ded29ca625ec8ae62dec4d84d659d",
    "tight_memory/round_robin":
        "740954b30946f2f06f6f6a14b29a195c68cdd90df1b6378523237ded05f5e4cc",
    "tight_memory/least_loaded":
        "ce4fefa5511cf9eec87ea800b898a9959599718fc728385a495dd566b4d9c29b",
    "tight_memory/hash_affinity":
        "f6d94f516fc0b3a0d5b73d1085d14692de6270e8ff527b6726dd1df0c3382cbb",
    "tight_memory/mcgrath_queues":
        "7835ca3580342247d11e013c87c946e224e4fe85264d5d86be0b95d5f7de9917",
    "tight_memory/data_aware":
        "f3fb77e1f74b1234e59821e8184ae2369107ed0e4419ded89b177eda76a936ef",
    "tight_memory/proactive_cluster":
        "1baa3ec90d02c551f37a7c38446886fffd4cec751d7bd6549ed05409e8eb2532",
    "tight_memory/least_loaded+steal":
        "89076d7615a659756b3b1153a82cc83e9919b4b98f3f805fb07f8a204f54374d",
}


def _seed_one_runs():
    for path in DEMO_SCENARIOS:
        for cfg in load_scenario(path).strategies:
            yield path, cfg


def _engine_log_digest(path: Path, strategy_cfg) -> str:
    """Digest of the engine log of one demo scenario's seed-1 run."""
    sim = simulate(Simulation, load_scenario(path), strategy_cfg, 1)[0]
    h = hashlib.sha256()
    for at, seq, action, args in sim.engine.log:
        h.update(f"{at},{seq},{event_label(sim, action, args)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("path, strategy_cfg", _seed_one_runs(),
                         ids=lambda v: v.stem if isinstance(v, Path) else v.label)
def test_demo_engine_logs_are_unchanged(path, strategy_cfg):
    assert _engine_log_digest(path, strategy_cfg) == ENGINE_LOGS[f"{path.stem}/{strategy_cfg.label}"]


DEMO_STDOUT = {
    "01_phase_anatomy.py":
        "15eb45703069eb829259e1adfe96a4337022e9e72cd522fd5af1e912bf8fdd52",
    "02_strategy_comparison.py":
        "a13d76d79ec7fef75c2bb5bbf4ab6a89e1ff56403e57bff3cc5119b778873d08",
    "03_work_stealing.py":
        "3584904dc90748e75f297e53e24316598ddb7317885ee63424b63a9d73b20edd",
    "04_proactive_replication.py":
        "cda8fac2af785d29f0798ecfb60d82bf4f9f1edd243495a15a2e9981d195a5bd",
}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.parent.glob("*.py")))
def test_demo_stdout_is_unchanged(name):
    # The script imports the dispatchsim package these tests import.
    src = str(Path(dispatchsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, str(DEMOS.parent / name)], env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_STDOUT[name]


MIXED = {
    "compare.csv":
        "c280d6a9803f7b739d139700dd91ae24fecb7e92ff221246fde659899d493883",
    "compare.json":
        "99199d832a6bb6c8401182c758f768bd376e34aba0c7668f99c058a0ddcb7423",
    "proactive_cluster+steal/1":
        "6b532e0a16ffab3cc21c6c6e7ac4a28e8e0198191b8c783a178620afeb921ac3",
    "mcgrath_queues+steal/1":
        "7309b764a734f81d604ebc7fc33410b8a5fe592552f230dcf8bb9e85d3df01bc",
    "proactive_cluster+steal/2":
        "4e85b4940ef5e31d6da561a0668ec4c4def8e5da817929b448bcc39c749d9141",
    "mcgrath_queues+steal/2":
        "6e5cc663b2d2379e336629dc28d01f1047d02acf54aeaac95d592e419e1aba34",
    "engine-log/proactive_cluster+steal":
        "b67d269f11629d9856e0f248347656acb86dfcc99b73053dee4f62d9192472b9",
    "engine-log/mcgrath_queues+steal":
        "01a7ed688bc3f83df3c37668c09d24576c04c8e076b4829890432f26422c914e",
}


def test_mixed_fixture_reports_are_unchanged(tmp_path):
    assert main(["compare", str(MIXED_FIXTURE), "--out-dir", str(tmp_path)]) == 0
    digests = {name: _digest(tmp_path / name) for name in ("compare.csv", "compare.json")}
    assert digests == {name: MIXED[name] for name in digests}


def test_mixed_fixture_records_are_unchanged():
    scenario = load_scenario(MIXED_FIXTURE)
    runs = [run_records_digest(scenario, cfg, seed)
            for seed in scenario.seeds for cfg in scenario.strategies]
    digests = {f"{r.strategy}/{r.seed}": digest for r, digest in runs}
    assert digests == {key: digest for key, digest in MIXED.items()
                       if not key.startswith(("compare.", "engine-log/"))}


@pytest.mark.parametrize("strategy_cfg", load_scenario(MIXED_FIXTURE).strategies,
                         ids=lambda cfg: cfg.label)
def test_mixed_fixture_engine_logs_are_unchanged(strategy_cfg):
    assert (_engine_log_digest(MIXED_FIXTURE, strategy_cfg)
            == MIXED[f"engine-log/{strategy_cfg.label}"])
