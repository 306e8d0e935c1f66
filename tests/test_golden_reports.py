"""Golden reports: SHA-256 digests of the report files ``cli.main`` writes.

The digests were recorded from the reports of commit 7508ee2, and the
tight-memory ones from e10539b. A change
that does not declare a behaviour change must leave every report byte for
byte as it was, so these digests must not be refreshed to make a refactor
pass. The data_intensive demo is pinned by perfbench/expected.json.

RECORDS pins more than a report shows: per run, every record in completion
order (node, finished_at, billed GB-s), the makespan and the replication
log. Those digests were recorded at commit 7fcbfec.
"""

import hashlib
from pathlib import Path

import yaml

from dispatchsim.cli import main
from dispatchsim.config import parse_scenario
from dispatchsim.runner import compare_scenario
from dispatchsim.strategies import STRATEGY_NAMES

from conftest import scenario_dict
from test_acceptance import DATA_INTENSIVE

MINIMAL = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "minimal.yaml"

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
}


def _records_digest(result) -> str:
    h = hashlib.sha256()
    for r in result.records:
        h.update(f"{r.node},{r.timeline.finished_at},{r.billed_gb_s!r}\n".encode())
    h.update(f"makespan={result.makespan_ms}\n".encode())
    for now, a in result.replication_log:
        h.update(f"{now},{a.object_id},{a.node},{a.placed},{a.note}\n".encode())
    return h.hexdigest()


def test_data_intensive_records_are_unchanged():
    strategies = [{"name": name} for name in STRATEGY_NAMES]
    strategies += [{"name": name, "work_stealing": True}
                   for name in ("least_loaded", "hash_affinity")]
    scenario = parse_scenario(scenario_dict(**dict(DATA_INTENSIVE, seeds=[1]),
                                            strategies=strategies))
    results, _ = compare_scenario(scenario)
    assert {r.strategy: _records_digest(r) for r in results} == RECORDS
