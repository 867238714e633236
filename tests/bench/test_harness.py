"""The figure/table harness end to end."""

import pathlib
import subprocess
import sys

import pytest

from repro.bench import harness

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_every_artifact_prints(capsys):
    assert harness.main([]) == 0
    out = capsys.readouterr().out
    for marker in ("Table III", "Table IV", "Fig. 1", "Fig. 4", "Fig. 5",
                   "Fig. 6", "Fig. 7", "Fig. 8"):
        assert marker in out


def test_artifact_subset(capsys):
    assert harness.main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 5" in out and "Table IV" not in out


def test_unknown_artifact_rejected(capsys):
    assert harness.main(["fig99"]) == 2


def test_validate_small():
    """The real-execution validation pass: every benchmark's oracle."""
    results = harness.validate(ranks=4)
    assert results and all(results.values()), results


def test_charts_render(capsys):
    assert harness.main(["fig4", "fig8", "--charts"]) == 0
    out = capsys.readouterr().out
    assert "log10 y" in out
    assert "o=mpi" in out and "x=upcxx" in out


def test_ascii_chart_shapes():
    chart = harness.ascii_chart(
        [1, 10, 100], {"a": [1.0, 10.0, 100.0], "b": [2.0, 20.0, 200.0]},
        title="t", height=5,
    )
    lines = chart.splitlines()
    assert lines[0].strip() == "t"
    assert len(lines) == 5 + 3  # title + rows + axis + legend
    assert "o=a" in lines[-1] and "x=b" in lines[-1]


def test_ascii_chart_empty():
    assert harness.ascii_chart([1], {"a": [0.0]}) == "(no data)"


def test_fig3_artifact(capsys):
    assert harness.main(["fig3"]) == 0
    out = capsys.readouterr().out
    assert "local access branch" in out
    assert "remote access branch" in out
    assert "0 conduit ops" in out and "1 conduit op" in out


@pytest.mark.parametrize("flag", [
    "--metrics", "--perfetto", "--kv", "--collectives", "--serde",
    "--failover", "--tracing", "--conduits", "--am-lat",
])
def test_removed_exporter_flags_rejected(flag, tmp_path, capsys):
    """The per-subsystem JSON exporters are gone (the bench spine under
    ``bench/`` replaced them): a doc or CI line that still names one
    must fail loudly, not print every figure."""
    with pytest.raises(SystemExit) as exc:
        harness.main([flag, str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_module_run_emits_no_runtime_warning():
    """``python -m repro.bench.harness`` must not find itself already
    imported by ``repro.bench``'s package init."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.bench.harness", "table4"],
        capture_output=True, text=True, timeout=60, cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Table IV" in proc.stdout
