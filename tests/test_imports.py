"""What each entry point imports: ``import driftvote`` and every command
load only the modules they use, and the lazy package still resolves every
public name and submodule.  No command loads ``dataclasses``, and ``bound``
and ``eval``, which load no numpy, load no ``inspect`` either: the two are
most of their start-up."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftvote
from driftvote.cli import main

ENGINE = ("driftvote.corrwin", "driftvote.adaptive", "driftvote.triplet")
#: standard modules that ``site`` does not load and start-up should not
SLOW = ("dataclasses", "inspect")


def loaded_after(code: str) -> set[str]:
    """The numpy, driftvote and :data:`SLOW` modules a fresh interpreter holds after ``code``."""
    code += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        f" if m.split('.')[0] in ('numpy', 'driftvote', *{SLOW!r}))))\n"
    )
    env = dict(os.environ)
    src = str(Path(driftvote.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_driftvote_loads_no_numpy():
    assert loaded_after("import driftvote") == {"driftvote"}


def test_bound_loads_no_numpy():
    code = (
        "from driftvote.cli import main\n"
        "assert main(['bound', '--n', '8', '--m', '20']) == 0\n"
    )
    assert loaded_after(code) == {"driftvote", "driftvote.cli", "driftvote.core"}


def test_bound_with_a_layout_loads_the_generator_only():
    code = (
        "from driftvote.cli import main\n"
        "assert main(['bound', '--n', '3', '--m', '8', '--preset', 'block-drift']) == 0\n"
    )
    loaded = loaded_after(code)
    assert "driftvote.driftgen" in loaded
    assert loaded.isdisjoint(ENGINE + ("driftvote.io", "driftvote.metrics", "dataclasses"))


def test_simulate_and_eval_load_no_engine(tmp_path):
    stream, reports = tmp_path / "s.jsonl", tmp_path / "r.jsonl"
    code = (
        "from driftvote.cli import main\n"
        f"assert main(['simulate', '--blocks', '40:0.9,0.8,0.7', '--out', {str(stream)!r}]) == 0\n"
    )
    loaded = loaded_after(code)
    assert {"driftvote.driftgen", "driftvote.io"} <= loaded
    assert loaded.isdisjoint(ENGINE + ("driftvote.metrics", "dataclasses"))

    code = (
        "from driftvote.cli import main\n"
        f"assert main(['run', '--input', {str(stream)!r}, '--m', '4', '--out', {str(reports)!r}]) == 0\n"
    )
    assert "dataclasses" not in loaded_after(code)
    # eval loads no numpy, dataclasses or inspect, with or without series files
    for series in ([], ["--series-dir", str(tmp_path / "series")]):
        code = (
            "from driftvote.cli import main\n"
            f"assert main(['eval', '--reports', {str(reports)!r}, '--out', '-', *{series!r}]) == 0\n"
        )
        assert loaded_after(code) == {
            "driftvote", "driftvote.cli", "driftvote.core", "driftvote.io", "driftvote.metrics",
        }
    assert (tmp_path / "series" / "r_rolling.csv").is_file()


def test_run_loads_numpy_random_only_for_an_abstention(tmp_path):
    # importing numpy.random costs several MB of RSS; ``run`` makes its
    # generator at the first block with an abstention, and a stream with
    # none never gets one
    stream, reports = tmp_path / "s.jsonl", tmp_path / "r.jsonl"
    main(["simulate", "--blocks", "2500:0.9,0.8,0.7", "--out", str(stream)])
    code = (
        "from driftvote.cli import main\n"
        f"assert main(['run', '--input', {str(stream)!r}, '--m', '4', '--out', {str(reports)!r}]) == 0\n"
    )
    assert "numpy.random" not in loaded_after(code)
    lines = stream.read_text().splitlines(keepends=True)
    lines[2300] = lines[2300].replace("[1, ", "[0, ", 1).replace("[-1, ", "[0, ", 1)  # in the third block
    stream.write_text("".join(lines))
    assert "numpy.random" in loaded_after(code)


def test_every_public_name_resolves():
    code = (
        "import driftvote\n"
        "names = {name: getattr(driftvote, name) for name in driftvote.__all__}\n"
        "assert set(driftvote.__all__) <= set(dir(driftvote))\n"
        "star = {}\n"
        "exec('from driftvote import *', star)\n"
        "assert all(star[name] is value for name, value in names.items())\n"
    )
    loaded_after(code)


def test_submodules_resolve_after_a_bare_import():
    code = (
        "import driftvote\n"
        "assert driftvote.corrwin.CorrelationBank is driftvote.CorrelationBank\n"
        "for name in ('adaptive', 'aggregate', 'core', 'driftgen', 'io', 'metrics', 'triplet'):\n"
        "    assert getattr(driftvote, name).__name__ == 'driftvote.' + name\n"
        "    assert name in dir(driftvote)\n"
    )
    loaded_after(code)


def test_names_are_bound_when_their_submodule_loads():
    # the package holds what each loaded submodule defined, as eager imports
    # did, so a tool that swaps a function at every binding swaps it there too
    code = (
        "import driftvote\n"
        "from driftvote import aggregate\n"
        "assert vars(driftvote)['weighted_vote'] is aggregate.weighted_vote\n"
        "assert vars(driftvote)['CorrelationBank'] is driftvote.corrwin.CorrelationBank\n"
        "assert 'read_stream' not in vars(driftvote)\n"
    )
    assert "driftvote.io" not in loaded_after(code)


def test_shared_records_are_one_object_everywhere():
    from driftvote import adaptive, aggregate, core, driftgen, io, metrics

    assert aggregate.Reports is io.Reports is metrics.Reports is core.Reports
    assert driftgen.Stream is io.Stream is core.Stream
    assert io.REPORT_COLUMNS is core.REPORT_COLUMNS
    assert adaptive.STOPS is core.REPORT_COLUMNS["stop_reason"][2] is core.STOPS
    assert metrics.ROLLING_LOOKAHEAD is core.ROLLING_LOOKAHEAD
    for name in ("STOP_THRESHOLD", "STOP_SCHEDULE", "STOP_HORIZON"):
        assert getattr(adaptive, name) is getattr(core, name) is getattr(driftvote, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        driftvote.no_such_name  # noqa: B018
    assert not hasattr(driftvote, "numpy")
    assert "cli" not in driftvote._SUBMODULES
