"""The repro-qbs CLI: exit codes, cache round-trips and metrics."""

import json

from repro.obs import metrics as obs_metrics
from repro.service.cli import main

SLICE = "w40,w42,i2"


def test_run_check_ok(tmp_path, capsys):
    code = main(["run", "--fragments", SLICE, "--check",
                 "--cache-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "3 fragments" in out and "3 computed" in out


def test_expect_cached_flags_cold_and_accepts_warm(tmp_path, capsys):
    cold = main(["run", "--fragments", SLICE, "--expect-cached",
                 "--cache-dir", str(tmp_path), "--quiet"])
    assert cold == 1
    assert "expected a fully cached run" in capsys.readouterr().out
    warm = main(["run", "--fragments", SLICE, "--expect-cached",
                 "--cache-dir", str(tmp_path), "--quiet"])
    assert warm == 0
    assert "3 from cache" in capsys.readouterr().out


def test_unknown_fragment_exits_2(capsys):
    assert main(["run", "--fragments", "nope", "--no-cache"]) == 2
    assert "unknown corpus fragments" in capsys.readouterr().err


def test_empty_fragments_exits_2_instead_of_running_everything(capsys):
    for value in ("", ","):
        assert main(["run", "--fragments", value, "--no-cache"]) == 2
        assert "names no fragment ids" in capsys.readouterr().err


def test_app_scoped_fragment_mismatch_exits_2(capsys):
    # i2 exists, but not inside --app wilos: an error, not an empty run.
    assert main(["run", "--app", "wilos", "--fragments", "i2",
                 "--no-cache"]) == 2
    assert "in app 'wilos'" in capsys.readouterr().err


def test_status_and_cache_subcommands(tmp_path, capsys):
    main(["run", "--fragments", "w40", "--cache-dir", str(tmp_path),
          "--quiet"])
    assert main(["status", "--fragments", SLICE,
                 "--cache-dir", str(tmp_path)]) == 0
    assert "1/3 fragments cached" in capsys.readouterr().out
    assert main(["cache", "list", "--cache-dir", str(tmp_path)]) == 0
    assert "w40" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed 1" in capsys.readouterr().out


def test_run_metrics_ends_with_the_registry_exposition(capsys):
    assert main(["run", "--fragments", "w40", "--no-cache",
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(obs_metrics.REGISTRY.exposition())
    exposition = out.rsplit("\n\n", 1)[1].splitlines()
    assert any(line.startswith('repro_jobs_total{state="done"} ')
               for line in exposition)
    pool_types = [line for line in exposition
                  if line.startswith("# TYPE repro_pool_")]
    assert pool_types == ["# TYPE repro_pool_%s_total counter" % name
                          for name in ("dispatches", "respawns",
                                       "retries")]


def test_run_json_metrics_carries_the_registry_snapshot(capsys):
    assert main(["run", "--fragments", "w40", "--no-cache", "--json",
                 "--metrics"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["fragments"] == 1
    metrics = document["metrics"]
    assert sorted(metrics) == sorted(obs_metrics.REGISTRY.snapshot())
    jobs = metrics["repro_jobs_total"]
    assert jobs["type"] == "counter"
    assert any(sample["labels"] == {"state": "done"} and sample["value"] >= 1
               for sample in jobs["samples"])
