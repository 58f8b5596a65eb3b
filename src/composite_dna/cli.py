"""Batch command-line front end.

Verbs
-----
encode / decode   the constructed code families (c1d, c2d, c3d, c4d, doll,
                  lme1, c1s, c2s) plus decoders for the congruence-class
                  families (cong-binary-t, cong-qary-1, cong-qary-t)
contains          membership checks for congruence-class families
corrupt           seeded channel corruption of a word
verify-code       brute-force decodability oracle over a codebook file
bounds            bound calculators, CSV output
transform         letterwise equivalence maps on word files
table             class-size table of the enumeration code, CSV output
roundtrip         encode -> corrupt -> decode sweeps with a pass/fail report

Every code family is one record of the FAMILIES table: the flags each verb
requires, its spec, encoder, decoder, membership test and the native error
model that roundtrip sweeps.  The --family choices of each verb come from
that table.  Every bound family is one entry of BOUND_FAMILIES: its required
flags, calculator and CSV extra column.  encode --spec-out writes the built
spec's values.

Exit codes: 0 success, 1 domain error (invalid word, precondition breach, a
flag the family needs is missing, a file that cannot be read or written), 2
usage error.  Diagnostics go to stderr, data to stdout or --out.  The same
argv with the same seed always produces byte-identical output; the
COMPOSITE_DNA_SEED environment variable supplies the default --seed.

CSV column orders (fixed, locale-free):
  bounds: q,k,n,extra,family,value,floor,asymptotic
  table:  l,supports,fills,inner,class_size
"""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .alphabet import Word, alphabet_size, word_from_text, word_to_text
from .bounds import (
    asym_bound_general,
    asym_bound_total,
    asym_deletion_bound,
    best_asym_total,
    gspb_deletion_bound,
    sp_bound_per_row,
    sp_bound_total,
)
from .channel import _KINDS as MODEL_NAMES  # the --model choices
from .channel import (
    ErrorModel,
    ReceivedRows,
    del_per_row,
    del_t_rows,
    del_total,
    oracle_is_code,
    outputs,
    random_errors,
    received_from_text,
    received_to_text,
    sub_per_row,
    sub_t_rows,
    sub_total,
)
from .codes_deletion import (
    C2DSpec,
    C3DSpec,
    C4DSpec,
    c1d_contains,
    c1d_decode,
    c1d_encode,
    c1d_message,
    c1d_message_length,
    c2d_decode,
    c2d_encode,
    c3d_decode,
    c3d_encode,
    c4d_decode,
    c4d_encode,
    congruence_contains_binary_t,
    congruence_contains_qary_one,
    congruence_contains_qary_t,
    congruence_decode_binary_t,
    congruence_decode_qary_one,
    congruence_decode_qary_t,
)
from .codes_substitution import (
    C1SSpec,
    C2SSpec,
    DollSpec,
    c1s_decode,
    c1s_encode,
    c2s_decode,
    c2s_encode,
    cecc1_contains,
    cecc1_decode,
    cecc1_encode,
    cecc1_message,
    dec_doll,
    enc_doll,
)
from .equivalence import MAP_NAMES, EquivalenceMap
from .vt_core import lme_message_length

# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _write_text(path: str, data: str):
    if path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(data)


def _ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("COMPOSITE_DNA_SEED", "0"))


def build_model(name: str, e: str, t: int | None) -> ErrorModel:
    values = _ints(e)
    if name == "sub-per-row":
        return sub_per_row(*values)
    if name == "del-per-row":
        return del_per_row(*values)
    if name in ("sub-total", "del-total"):
        if len(values) != 1:
            raise ValueError(f"model {name} takes a single --e value")
        return (sub_total if name == "sub-total" else del_total)(values[0])
    if name in ("sub-t-rows", "del-t-rows"):
        if t is None:
            raise ValueError(f"model {name} requires --t")
        maker = sub_t_rows if name == "sub-t-rows" else del_t_rows
        return maker(t, values)
    raise ValueError(f"unknown model {name!r}")


def _spec_text(args, spec, n: int) -> str:
    """The spec file of an encode: the family, the codeword length n, and
    each parameter flag that was given, with the value the built spec holds
    for it.  A flag the spec does not take is left out."""
    lines = [f"family={args.family}"]
    for key in ("q", "k", "t", "m", "n", "a"):
        if key == "n":
            lines.append(f"n={n}")
        elif getattr(args, key) is not None and getattr(spec, key, None) is not None:
            lines.append(f"{key}={getattr(spec, key)}")
    return "\n".join(lines) + "\n"


def _load_spec_file(args):
    """Fill family/q/k/t/m/n/a from a key=value file; flags win when set."""
    for line in _read_text(args.spec).splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        if key == "family":
            if getattr(args, "family", None) is None:
                args.family = value
        elif key in ("q", "k", "t", "m", "n", "a"):
            if getattr(args, key, None) is None:
                setattr(args, key, int(value))


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"--{name} is required for family {args.family}")


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One code family, as every verb sees it.

    ``flags`` maps each verb the family supports to the flags that verb
    requires, in the order they are checked.  ``spec`` turns the parsed
    arguments into the parameters that the other fields take last; a verb
    builds it once.  ``decode`` returns the message of a message family and
    the payload word of the others.  ``message_space`` gives (alphabet size,
    length) of the messages a roundtrip enumerates; families without one
    sample --trials payloads instead.  ``model`` gives the channel model the
    code corrects, whose every distinct output (channel.outputs) a
    roundtrip decodes once, weighted by the number of error patterns that
    give it.  ``sweeps_clean_word`` is False for doll alone: its sweep
    leaves out the error-free word, n cases per message.  The fields name
    the codec functions inside lambdas, so they are looked up at call time.
    """

    flags: dict[str, tuple[str, ...]]
    decode: Callable
    spec: Callable = lambda args: args
    encode: Callable | None = None
    contains: Callable | None = None
    message_space: Callable | None = None
    model: Callable | None = None
    sweeps_clean_word: bool = True


def _payload_flags(*names):
    return dict.fromkeys(("encode", "decode", "roundtrip"), names)


@dataclass(frozen=True)
class _ClassCode:
    """c1d and lme1: the binary class code {VT-type sum = a} of length n over
    k rows, with a systematic encoder; decode and contains need only a."""

    k: int | None
    n: int | None
    a: int
    q = 2


_CLASS_CODE_FLAGS = {
    "encode": ("k", "n", "a", "message"),
    "decode": ("a",),
    "contains": ("a",),
    "roundtrip": ("k", "n", "a"),
}


FAMILIES = {
    "c1d": Family(
        flags=_CLASS_CODE_FLAGS,
        spec=lambda args: _ClassCode(args.k, args.n, args.a),
        encode=lambda message, spec: c1d_encode(message, spec.a, spec.k, spec.n),
        decode=lambda received, spec: c1d_message(c1d_decode(received, spec.a)),
        contains=lambda word, spec: c1d_contains(word, spec.a),
        message_space=lambda _, spec: (spec.k + 1, c1d_message_length(spec.k, spec.n)),
        model=lambda _: del_total(1),
    ),
    "lme1": Family(
        flags=_CLASS_CODE_FLAGS,
        spec=lambda args: _ClassCode(args.k, args.n, args.a),
        encode=lambda message, spec: cecc1_encode(message, spec.a, spec.k, spec.n),
        decode=lambda received, spec: cecc1_message(cecc1_decode(received, spec.a)),
        contains=lambda word, spec: cecc1_contains(word, spec.a),
        message_space=lambda _, spec: (
            spec.k + 1,
            lme_message_length(spec.n, spec.k + 1),
        ),
        model=lambda _: sub_total(1),
    ),
    "doll": Family(
        flags={
            "encode": ("k", "n", "message"),
            "decode": ("k", "n"),
            "roundtrip": ("k", "n"),
        },
        spec=lambda args: DollSpec(2 if args.q is None else args.q, args.k, args.n),
        encode=lambda message, spec: enc_doll(message, spec),
        decode=lambda received, spec: dec_doll(received, spec),
        message_space=lambda _, spec: (alphabet_size(spec.q, spec.k), spec.m),
        model=lambda spec: sub_per_row(1, *[0] * (spec.k - 1)),
        sweeps_clean_word=False,
    ),
    "c2d": Family(
        flags=_payload_flags("k", "t", "m"),
        spec=lambda args: C2DSpec(args.k, args.t, args.m),
        encode=lambda payload, spec: c2d_encode(payload, spec),
        decode=lambda received, spec: c2d_decode(received, spec),
        model=lambda spec: del_t_rows(spec.t, [1] * spec.t),
    ),
    "c3d": Family(
        flags=_payload_flags("q", "k", "m"),
        spec=lambda args: C3DSpec(args.q, args.k, args.m),
        encode=lambda payload, spec: c3d_encode(payload, spec),
        decode=lambda received, spec: c3d_decode(received, spec),
        model=lambda _: del_t_rows(1, [1]),
    ),
    "c4d": Family(
        flags=_payload_flags("q", "k", "m", "t"),
        spec=lambda args: C4DSpec(args.q, args.k, args.t, args.m),
        encode=lambda payload, spec: c4d_encode(payload, spec),
        decode=lambda received, spec: c4d_decode(received, spec),
        model=lambda spec: del_t_rows(spec.t, [1] * spec.t),
    ),
    "c1s": Family(
        flags=_payload_flags("q", "k", "m"),
        spec=lambda args: C1SSpec(args.q, args.k, args.m),
        encode=lambda payload, spec: c1s_encode(payload, spec),
        decode=lambda received, spec: c1s_decode(received, spec),
        model=lambda _: sub_total(1),
    ),
    "c2s": Family(
        flags=_payload_flags("q", "k", "m", "t"),
        spec=lambda args: C2SSpec(args.q, args.k, args.t, args.m),
        encode=lambda payload, spec: c2s_encode(payload, spec),
        decode=lambda received, spec: c2s_decode(received, spec),
        model=lambda spec: sub_t_rows(spec.t, [1] * spec.t),
    ),
    "cong-binary-t": Family(
        flags=dict.fromkeys(("decode", "contains"), ("p", "targets")),
        spec=lambda args: (_ints(args.targets), args.p),
        decode=lambda received, spec: congruence_decode_binary_t(received, *spec),
        contains=lambda word, spec: congruence_contains_binary_t(word, *spec),
    ),
    "cong-qary-1": Family(
        flags=dict.fromkeys(("decode", "contains"), ("a",)),
        decode=lambda received, args: congruence_decode_qary_one(received, args.a),
        contains=lambda word, args: congruence_contains_qary_one(word, args.a),
    ),
    "cong-qary-t": Family(
        flags=dict.fromkeys(("decode", "contains"), ("p", "targets")),
        spec=lambda args: (_ints(args.targets), args.p),
        decode=lambda received, spec: congruence_decode_qary_t(received, *spec),
        contains=lambda word, spec: congruence_contains_qary_t(word, *spec),
    ),
}


def _families_with(verb: str) -> list[str]:
    return [name for name, family in FAMILIES.items() if verb in family.flags]


# ---------------------------------------------------------------------------
# encode / decode / contains
# ---------------------------------------------------------------------------

def _checked_family(args, verb: str) -> Family:
    family = FAMILIES[args.family]
    _require(args, *family.flags[verb])
    return family


def _read_message(family: Family, args, spec):
    """What encode takes: a message tuple, or a payload word for the
    families that sample payloads."""
    if family.message_space is not None:
        return _ints(args.message)
    if args.message is not None:
        return Word.from_ranks(_ints(args.message), spec.q, args.k)
    return word_from_text(_read_text(args.infile))


def cmd_encode(args) -> int:
    family = _checked_family(args, "encode")
    spec = family.spec(args)
    word = family.encode(_read_message(family, args, spec), spec)
    _write_text(args.out, word_to_text(word))
    if args.spec_out:
        _write_text(args.spec_out, _spec_text(args, spec, word.n))
    return 0


def cmd_decode(args) -> int:
    if args.spec:
        _load_spec_file(args)
    if args.family is None:
        raise ValueError("--family is required (flag or spec file)")
    received = received_from_text(_read_text(args.infile))
    if args.family not in FAMILIES:
        raise ValueError(f"family {args.family!r} has no decoder")
    family = _checked_family(args, "decode")
    decoded = family.decode(received, family.spec(args))
    if isinstance(decoded, Word):
        _write_text(args.out, word_to_text(decoded))
    else:
        _write_text(args.out, ",".join(map(str, decoded)) + "\n")
    return 0


def cmd_contains(args) -> int:
    word = word_from_text(_read_text(args.infile))
    family = _checked_family(args, "contains")
    verdict = family.contains(word, family.spec(args))
    _write_text(args.out, ("true" if verdict else "false") + "\n")
    return 0


# ---------------------------------------------------------------------------
# corrupt / verify-code / transform
# ---------------------------------------------------------------------------

def cmd_corrupt(args) -> int:
    word = word_from_text(_read_text(args.infile))
    model = build_model(args.model, args.e, args.t)
    received, _plan = random_errors(word, model, _default_seed(args))
    _write_text(args.out, received_to_text(received))
    return 0


def _read_codebook(text: str) -> list[Word]:
    blocks, current = [], []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))
    if not blocks:
        raise ValueError("empty codebook file")
    return [word_from_text(block) for block in blocks]


def cmd_verify_code(args) -> int:
    codebook = _read_codebook(_read_text(args.infile))
    model = build_model(args.model, args.e, args.t)
    result = oracle_is_code(codebook, model)
    lines = [f"verdict: {'true' if result.is_code else 'false'}"]
    if not result.is_code:
        first, second, shared = result.witness
        lines.append("witness codeword A:")
        lines.append(word_to_text(first).rstrip("\n"))
        lines.append("witness codeword B:")
        lines.append(word_to_text(second).rstrip("\n"))
        lines.append("shared received:")
        lines.append(received_to_text(shared).rstrip("\n"))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_transform(args) -> int:
    word = word_from_text(_read_text(args.infile))
    mapped = EquivalenceMap(args.map).on_word(word)
    _write_text(args.out, word_to_text(mapped))
    return 0


# ---------------------------------------------------------------------------
# bounds / table
# ---------------------------------------------------------------------------

def _budgets_extra(args, _report) -> str:
    return "budgets=" + "|".join(map(str, _ints(args.budgets)))


def _asym_total(args):
    if args.l is None:
        return best_asym_total(args.q, args.k, args.n, args.e)
    return asym_bound_total(args.q, args.k, args.n, args.e, args.l)


# bound family -> (flags it requires in the order they are checked,
#                  calculator, text of the CSV extra column)
BOUND_FAMILIES = {
    "sp-per-row": (
        ("q", "k", "n", "budgets"),
        lambda args: sp_bound_per_row(args.q, args.k, args.n, _ints(args.budgets)),
        _budgets_extra,
    ),
    "sp-total": (
        ("q", "k", "n", "e"),
        lambda args: sp_bound_total(args.q, args.k, args.n, args.e),
        lambda args, _: f"e={args.e}",
    ),
    "asym-total": (
        ("q", "k", "n", "e"),
        _asym_total,
        lambda args, report: f"e={args.e} l={report.params['l']}",
    ),
    "asym-general": (
        ("q", "k", "n", "budgets"),
        lambda args: asym_bound_general(args.q, args.k, args.n, _ints(args.budgets)),
        _budgets_extra,
    ),
    "gspb-deletion": (
        ("k", "n"),
        lambda args: gspb_deletion_bound(args.n, args.k),
        lambda *_: "",
    ),
    "asym-deletion": (
        ("k", "n"),
        lambda args: asym_deletion_bound(args.k, args.n),
        lambda *_: "",
    ),
}


def cmd_bounds(args) -> int:
    flags, calculate, extra = BOUND_FAMILIES[args.family]
    _require(args, *flags)
    report = calculate(args)
    q = args.q if args.q is not None else 2
    lines = [
        "q,k,n,extra,family,value,floor,asymptotic",
        f"{q},{args.k},{args.n},{extra(args, report)},{report.family},{report.value},"
        f"{report.floor},{'true' if report.asymptotic else 'false'}",
    ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_table(args) -> int:
    if args.what != "doll":
        raise ValueError(f"unknown table {args.what!r}")
    q = args.q if args.q is not None else 2
    spec = DollSpec(q, args.k, args.n)
    lines = ["l,supports,fills,inner,class_size"]
    lines += [",".join(map(str, row)) for row in spec.table()]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

def _messages(family: Family, args, spec):
    """(label, message) pairs of a sweep: every message of a message family,
    or --trials payloads drawn with --seed."""
    if family.message_space is not None:
        symbols, length = family.message_space(args, spec)
        return (
            (f"message={message}", message)
            for message in itertools.product(range(symbols), repeat=length)
        )
    rng = random.Random(_default_seed(args))
    big_q = alphabet_size(spec.q, args.k)
    draws = ([rng.randrange(big_q) for _ in range(args.m)] for _ in range(args.trials))
    return [
        (f"payload#{index}", Word.from_ranks(ranks, spec.q, args.k))
        for index, ranks in enumerate(draws)
    ]


def cmd_roundtrip(args) -> int:
    family = _checked_family(args, "roundtrip")
    spec = family.spec(args)
    model = family.model(spec)
    cases = failures = 0
    first_failure = None
    for label, message in _messages(family, args, spec):
        word = family.encode(message, spec)
        for errors, rows, count in outputs(word, model):
            if not (errors or family.sweeps_clean_word):
                continue
            received = ReceivedRows(rows, word.q, word.n)
            cases += count
            try:
                ok = family.decode(received, spec) == message
            except ValueError:
                ok = False
            if not ok:
                failures += count
                if first_failure is None:
                    first_failure = (label, errors, received)
    lines = [
        f"family={args.family}",
        f"cases={cases} failures={failures}",
        "PASS" if failures == 0 else "FAIL",
    ]
    if first_failure is not None:
        label, errors, received = first_failure
        lines.append(f"first failure: {label} pattern={list(errors)}")
        lines.append("received rows were:")
        lines.append(received_to_text(received).rstrip("\n"))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_io(parser):
    parser.add_argument(
        "--in",
        dest="infile",
        default="-",
        help="input file (word or received rows text); - for stdin",
    )
    parser.add_argument("--out", default="-", help="output file; - for stdout")


def _add_params(parser):
    parser.add_argument("--q", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--t", type=int, default=None)
    parser.add_argument("--m", type=int, default=None)
    parser.add_argument("--a", type=int, default=None)
    parser.add_argument("--p", type=int, default=None)
    parser.add_argument(
        "--targets", default=None, help="comma-separated congruence targets a_j"
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state
    between calls.  Each verb's cmd_* function is bound here, and the names
    that it calls are looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="composite-dna",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    enc = sub.add_parser("encode", help="encode a message or payload word")
    enc.add_argument("--family", required=True, choices=_families_with("encode"))
    enc.add_argument("--message", default=None, help="comma-separated symbols")
    enc.add_argument("--spec-out", default=None, help="write key=value spec file")
    _add_params(enc)
    _add_io(enc)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode received rows")
    dec.add_argument("--family", default=None, choices=_families_with("decode"))
    dec.add_argument("--spec", default=None, help="read key=value spec file")
    _add_params(dec)
    _add_io(dec)
    dec.set_defaults(func=cmd_decode)

    con = sub.add_parser("contains", help="membership check for class codes")
    con.add_argument("--family", required=True, choices=_families_with("contains"))
    _add_params(con)
    _add_io(con)
    con.set_defaults(func=cmd_contains)

    cor = sub.add_parser("corrupt", help="apply seeded random channel errors")
    cor.add_argument("--model", required=True, choices=MODEL_NAMES)
    cor.add_argument("--e", required=True, help="budget or comma list")
    cor.add_argument("--t", type=int, default=None)
    cor.add_argument("--seed", type=int, default=None)
    _add_io(cor)
    cor.set_defaults(func=cmd_corrupt)

    ver = sub.add_parser("verify-code", help="oracle a codebook file")
    ver.add_argument("--model", required=True, choices=MODEL_NAMES)
    ver.add_argument("--e", required=True, help="budget or comma list")
    ver.add_argument("--t", type=int, default=None)
    _add_io(ver)
    ver.set_defaults(func=cmd_verify_code)

    bou = sub.add_parser("bounds", help="bound calculators (CSV)")
    bou.add_argument("--family", required=True, choices=list(BOUND_FAMILIES))
    bou.add_argument("--e", type=int, default=None)
    bou.add_argument("--l", type=int, default=None)
    bou.add_argument("--budgets", default=None, help="comma-separated budgets")
    bou.add_argument("--q", type=int, default=None)
    bou.add_argument("--k", type=int, default=None)
    bou.add_argument("--n", type=int, default=None)
    _add_io(bou)
    bou.set_defaults(func=cmd_bounds)

    tra = sub.add_parser("transform", help="apply an equivalence map to a word")
    tra.add_argument("--map", required=True, choices=MAP_NAMES)
    _add_io(tra)
    tra.set_defaults(func=cmd_transform)

    tab = sub.add_parser("table", help="enumeration-code class table (CSV)")
    tab.add_argument("what", choices=("doll",))
    tab.add_argument("--q", type=int, default=None)
    tab.add_argument("--k", type=int, required=True)
    tab.add_argument("--n", type=int, required=True)
    _add_io(tab)
    tab.set_defaults(func=cmd_table)

    rou = sub.add_parser("roundtrip", help="encode->corrupt->decode sweep")
    rou.add_argument("--family", required=True, choices=_families_with("roundtrip"))
    rou.add_argument("--trials", type=int, default=20, help="sampled payloads")
    rou.add_argument("--seed", type=int, default=None)
    _add_params(rou)
    _add_io(rou)
    rou.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
