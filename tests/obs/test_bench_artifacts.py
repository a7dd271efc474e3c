"""Machine-readable bench artifacts: schema, atomicity, real runs."""

import json
import os
import sys
import time

import pytest

from repro.bench.harness import (
    BENCH_ARTIFACT_SCHEMA,
    BENCH_DIR_ENV,
    bench_artifact_dir,
    floor_entry,
    validate_bench_artifact,
    write_bench_artifact,
)

BENCHMARKS_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                              "benchmarks")


@pytest.fixture()
def bench_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(BENCH_DIR_ENV, str(tmp_path))
    return tmp_path


def test_artifact_dir_env_override(bench_dir):
    assert bench_artifact_dir() == str(bench_dir)


def test_write_and_validate_roundtrip(bench_dir):
    path = write_bench_artifact(
        "unit", True, smoke=True,
        floors={"speed": floor_entry(2.4, 2.0)},
        measurements=[{"mode": "optimized", "seconds": 0.01}],
        extra={"repeats": 1})
    assert os.path.basename(path) == "BENCH_unit.json"
    with open(path) as fh:
        payload = json.load(fh)
    validate_bench_artifact(payload)
    assert payload["schema"] == BENCH_ARTIFACT_SCHEMA
    assert payload["ok"] is True
    assert payload["smoke"] is True
    assert payload["floors"]["speed"] == {
        "value": 2.4, "floor": 2.0, "passed": True, "asserted": True}
    assert payload["measurements"] == [{"mode": "optimized",
                                        "seconds": 0.01}]
    assert payload["extra"]["repeats"] == 1
    # The embedded metrics snapshot is the registry's JSON form.
    assert isinstance(payload["metrics"], dict)
    assert payload["created_unix"] > 0


def test_artifact_carries_provenance(bench_dir):
    """v2 additions: ISO timestamp and the producing git commit."""
    path = write_bench_artifact("prov", True)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["schema"] == "repro-bench-artifact/v2"
    assert payload["created_utc"].endswith("Z")
    assert payload["created_utc"].startswith(
        time.strftime("%Y-", time.gmtime(payload["created_unix"])))
    # This test runs inside the repo, so the commit resolves; the
    # field is best-effort null when benchmarks run from a tarball.
    commit = payload["git_commit"]
    assert commit is None or (
        len(commit) == 40 and all(c in "0123456789abcdef" for c in commit))


def test_validate_rejects_missing_v2_keys(bench_dir):
    path = write_bench_artifact("v2", True)
    with open(path) as fh:
        payload = json.load(fh)
    for key in ("created_utc", "git_commit"):
        broken = json.loads(json.dumps(payload))
        broken.pop(key)
        with pytest.raises(ValueError):
            validate_bench_artifact(broken)


def test_unasserted_floor_is_recorded_not_enforced(bench_dir):
    entry = floor_entry(0.5, 1.8, asserted=False)
    assert entry == {"value": 0.5, "floor": 1.8, "passed": False,
                     "asserted": False}
    path = write_bench_artifact("gated", True,
                                floors={"parallel": entry})
    with open(path) as fh:
        validate_bench_artifact(json.load(fh))


def test_validate_rejects_malformed_payloads(bench_dir):
    path = write_bench_artifact("ok", True)
    with open(path) as fh:
        payload = json.load(fh)
    for mutate in (
        lambda p: p.pop("schema"),
        lambda p: p.pop("metrics"),
        lambda p: p.update(schema="other/v9"),
        lambda p: p.update(floors={"f": {"value": 1.0}}),
    ):
        broken = json.loads(json.dumps(payload))
        mutate(broken)
        with pytest.raises(ValueError):
            validate_bench_artifact(broken)


def test_real_bench_run_leaves_valid_artifact(bench_dir):
    """A traced smoke run of a real benchmark writes its artifact."""
    sys.path.insert(0, BENCHMARKS_DIR)
    try:
        import bench_join_order
    finally:
        sys.path.pop(0)
    assert bench_join_order.run(smoke=True) == 0
    path = bench_dir / "BENCH_join_order.json"
    payload = json.loads(path.read_text())
    validate_bench_artifact(payload)
    assert payload["ok"] is True
    assert payload["floors"]["join_order"]["passed"] is True
    assert payload["floors"]["join_order"]["asserted"] is True
