"""The benchmark's own test, at toy sizes.

    python3 -m pytest -q perfbench/test_bench.py

Runs every workload's correctness checks end to end, traced and untraced,
and makes sure a wrong decode or a flipped verdict is counted as a failed
operation.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


class ToyLongRows(workloads.LongRowsDeletion):
    C2D_LENGTHS = (8, 12)
    C4D_LENGTHS = (6,)


class ToySweep(workloads.SweepShortRows):
    FAMILIES = (
        ("c2d", {"k": 2, "t": 2, "m": 2, "trials": 1}),
        ("c2s", {"q": 3, "k": 2, "t": 2, "m": 1, "trials": 1}),
        ("c4d", {"q": 3, "k": 2, "t": 2, "m": 2, "trials": 1}),
        ("c3d", {"q": 3, "k": 2, "m": 3, "trials": 1}),
        ("c1s", {"q": 3, "k": 2, "m": 3, "trials": 2}),
        ("c1d", {"k": 2, "n": 4, "a": 0}),
        ("lme1", {"k": 2, "n": 4, "a": 1}),
        ("doll", {"k": 3, "n": 3}),
    )


class ToyOracle(workloads.OracleVerify):
    VARIANTS = 2
    SIZES = {"c1d": 20, "lme1": 20, "doll": 10, "c2d": 2, "c2s": 2}


TOYS = (ToyLongRows, ToySweep, ToyOracle)


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("toy", TOYS, ids=lambda cls: cls.name)
def test_workload_checks_pass(toy, workdir):
    tally, metrics, _ = run.measure(toy, 3, 0, workdir)
    assert tally.attempted == len(tally.samples) > 0
    assert tally.failed == 0 and tally.wrong == 0
    assert set(metrics) == {"setup_s", "cases_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("toy", TOYS, ids=lambda cls: cls.name)
def test_traced_counts_repeat_and_wrappers_are_restored(toy, workdir):
    first = run.trace(toy, 5, workdir)
    second = run.trace(toy, 5, workdir)
    for tally, _, _ in (first, second):
        assert tally.failed == 0
    counts = [
        {k: v for k, (v, unit) in metrics.items() if unit == "count"}
        for _, metrics, _ in (first, second)
    ]
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) > 0
    cd = sys.modules["composite_dna"]
    tracer = second[2]
    assert not tracer._saved
    assert cd.cli.main.__module__ == "composite_dna.cli"
    assert cd.vt_core.vt_syndrome.__module__ == "composite_dna.vt_core"
    assert cd.codes_deletion.vt_decode_one_deletion is cd.vt_core.vt_decode_one_deletion
    assert cd.Word.rows.__qualname__ == "Word.rows"
    assert cd.ReceivedRows.__post_init__.__qualname__ == "ReceivedRows.__post_init__"


def test_traced_run_sees_each_layer(workdir):
    _, long_rows, _ = run.trace(ToyLongRows, 1, workdir)
    assert long_rows["vt_core.row_decodes"][0] > 0
    assert long_rows["vt_core.syndrome_evals_per_row_decode"][0] > 1
    assert long_rows["codes_deletion.encodes"][0] == long_rows["codes_deletion.decodes"][0]
    assert long_rows["channel.outputs_distinct"][0] == 0
    _, oracle, _ = run.trace(ToyOracle, 1, workdir)
    assert oracle["vt_core.row_decodes"][0] == 0
    assert 0 < oracle["channel.distinct_ratio"][0] <= 1
    assert oracle["cli.self_s"][0] > 0


def test_tampered_decode_counts_as_failed(workdir):
    _, cd, workload = run.set_up(ToyLongRows, 7, workdir)
    decode = cd.c2d_decode

    def tampered(received, spec):
        """The right payload with its first column replaced."""
        rows = [list(row) for row in decode(received, spec).rows()]
        digit = 0 if any(row[0] for row in rows) else 1
        for row in rows:
            row[0] = digit
        return cd.Word.from_rows(rows, received.q)

    cd.c2d_decode = tampered
    tally = run.Tally()
    for op in workload.round(0):
        tally.run(op, run.Timer())
    assert tally.failed == tally.wrong == len(ToyLongRows.C2D_LENGTHS)
    assert tally.attempted == len(workload.round(0))


def test_flipped_verdict_counts_as_failed(workdir):
    _, cd, workload = run.set_up(ToyOracle, 7, workdir)
    main = cd.cli.main

    def flipped(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        text = buf.getvalue()
        swap = {"verdict: true": "verdict: false", "verdict: false": "verdict: true"}
        first, _, rest = text.partition("\n")
        sys.stdout.write(swap[first] + "\n" + rest)
        return code

    cd.cli.main = flipped
    tally = run.Tally()
    for op in workload.round(0):
        tally.run(op, run.Timer())
    assert tally.failed == tally.wrong == tally.attempted == len(workload.round(0))


def test_witness_must_be_two_members_and_a_shared_output(workdir):
    _, cd, workload = run.set_up(ToyOracle, 7, workdir)
    book = workload.negative
    secs, (code, text) = run.Timer()(workloads._cli, cd, list(book.argv))
    lines = text.splitlines()
    assert code == 0 and lines[0] == "verdict: false"
    assert workloads.witness_holds(lines, book)
    outsider = workloads.Codebook(book.argv, frozenset(), False, 2)
    assert not workloads.witness_holds(lines, outsider)
    shorter = workloads.Codebook(book.argv, book.rows, False, 1)
    assert not workloads.witness_holds(lines, shorter)


def test_set_up_drops_modules_loaded_after_start_up():
    stdlib_module = types.ModuleType("fractions")
    assert not run._keep_loaded("a_module_loaded_later", stdlib_module)
    assert run._keep_loaded("sys", sys)
    assert run._keep_loaded("workloads", workloads)
    before = sys.modules["composite_dna"] if "composite_dna" in sys.modules else None
    _, cd, _ = run.set_up(ToyLongRows, 1, "unused")
    assert cd is not before and sys.modules["composite_dna"] is cd


def test_closed_form_case_counts():
    # the cases= of the roundtrip starting points quoted in ROADMAP.md
    assert workloads.roundtrip_cases("c2d", {"k": 3, "t": 2, "m": 16, "trials": 5}) == 10535
    assert workloads.roundtrip_cases("c2s", {"q": 3, "k": 3, "t": 2, "m": 6, "trials": 3}) == 17823
    assert workloads.roundtrip_cases("c1d", {"k": 2, "n": 7, "a": 0}) == 3402
    assert workloads.roundtrip_cases("lme1", {"k": 2, "n": 7, "a": 0}) == 1215
    assert workloads.roundtrip_cases("doll", {"k": 3, "n": 5}) == 320
