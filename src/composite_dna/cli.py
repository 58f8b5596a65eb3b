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

Every code family is one record of the library's families.FAMILIES table:
its parameters, the flags each verb requires, its spec, encoder, decoder,
membership test and the native error model that roundtrip sweeps.  The
--family choices of each verb, the flags it checks and the spec it builds
all come from that record, and a verb's parameter flags are those its
families take, so a flag that none of them reads is a usage error; this
front end holds no codec of its own.
Every bound family is one entry of BOUND_FAMILIES: its required flags,
calculator and CSV extra column.  encode --spec-out writes the built spec's
values.

Exit codes: 0 success, 1 domain error (invalid word, precondition breach, a
flag the family needs is missing, a roundtrip of fewer than one trial, a
file that cannot be read or written), 2 usage error.  Diagnostics go to
stderr, data to stdout or --out.  The same argv with the same seed always
produces byte-identical output; the COMPOSITE_DNA_SEED environment variable
supplies the default --seed.

CSV column orders (fixed, locale-free):
  bounds: q,k,n,extra,family,value,floor,asymptotic
  table:  l,supports,fills,inner,class_size
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import groupby

from .alphabet import Word, word_from_text, word_to_text, words_from_blocks
from .bounds import (
    asym_bound_general,
    asym_bound_total,
    asym_deletion_bound,
    best_asym_total,
    gspb_deletion_bound,
    sp_bound_per_row,
    sp_bound_total,
)
from .channel import (
    MODEL_KINDS,  # the --model choices
    ErrorModel,
    ReceivedRows,
    oracle_is_code,
    packed_outputs,
    random_errors,
    received_from_text,
    received_to_text,
)
from .codes_substitution import DollSpec
from .equivalence import MAP_NAMES, EquivalenceMap
from .families import FAMILIES, Family

# the keys of a spec file, in the order encode --spec-out writes them
SPEC_KEYS = ("q", "k", "t", "m", "n", "a")

# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


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
    """The model of the --model, --e and --t flags: the kind --model with
    the budgets --e, which ErrorModel checks.  Only the t-rows kinds read
    --t, which must be given and count the budgets."""
    t_rows = name.endswith("-t-rows")
    if t_rows and t is None:
        raise ValueError(f"model {name} requires --t")
    model = ErrorModel(name, _ints(e))
    if t_rows and len(model.budgets) != t:
        raise ValueError(f"expected {t} budgets, got {len(model.budgets)}")
    return model


def _spec_text(args, spec, n: int) -> str:
    """The spec file of an encode: the family, the codeword length n, and
    each parameter flag that was given, with the value the built spec holds
    for it.  A flag the spec does not take is left out."""
    lines = [f"family={args.family}"]
    for key in SPEC_KEYS:
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
        if key in ("family", *SPEC_KEYS) and getattr(args, key, None) is None:
            setattr(args, key, value if key == "family" else int(value))


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"--{name} is required for family {args.family}")


def _families_with(verb: str) -> list[str]:
    return [name for name, family in FAMILIES.items() if verb in family.flags]


def _family_spec(args, verb: str) -> tuple[Family, object]:
    """The family that --family names, after checking the flags the verb
    requires, and its spec built from the flags that name its parameters."""
    family = FAMILIES[args.family]
    _require(args, *family.flags[verb])
    params = {
        name: _ints(value) if name == "targets" else value
        for name in family.params
        if (value := getattr(args, name)) is not None
    }
    return family, family.spec(**params)


# ---------------------------------------------------------------------------
# encode / decode / contains
# ---------------------------------------------------------------------------

def _read_message(family: Family, args, spec):
    """What encode takes: a message tuple, or a payload word for the
    families that sample payloads."""
    if family.message_space is not None:
        return _ints(args.message)
    if args.message is not None:
        return Word.from_ranks(_ints(args.message), spec.q, spec.k)
    return word_from_text(_read_text(args.infile))


def cmd_encode(args) -> list[tuple[str, str]]:
    family, spec = _family_spec(args, "encode")
    word = family.encode(_read_message(family, args, spec), spec)
    writes = [(args.out, word_to_text(word))]
    if args.spec_out:
        writes.append((args.spec_out, _spec_text(args, spec, word.n)))
    return writes


def cmd_decode(args) -> list[tuple[str, str]]:
    if args.spec:
        _load_spec_file(args)
    if args.family is None:
        raise ValueError("--family is required (flag or spec file)")
    received = received_from_text(_read_text(args.infile))
    if args.family not in FAMILIES:
        raise ValueError(f"family {args.family!r} has no decoder")
    family, spec = _family_spec(args, "decode")
    decoded = family.decode(received, spec)
    if isinstance(decoded, Word):
        return [(args.out, word_to_text(decoded))]
    return [(args.out, ",".join(map(str, decoded)) + "\n")]


def cmd_contains(args) -> list[tuple[str, str]]:
    word = word_from_text(_read_text(args.infile))
    family, spec = _family_spec(args, "contains")
    verdict = family.contains(word, spec)
    return [(args.out, ("true" if verdict else "false") + "\n")]


# ---------------------------------------------------------------------------
# corrupt / verify-code / transform
# ---------------------------------------------------------------------------

def cmd_corrupt(args) -> list[tuple[str, str]]:
    word = word_from_text(_read_text(args.infile))
    model = build_model(args.model, args.e, args.t)
    received, _plan = random_errors(word, model, _default_seed(args))
    return [(args.out, received_to_text(received))]


def _read_codebook(text: str) -> list[Word]:
    """The words of a codebook file: blocks of word text separated by blank
    or whitespace-only lines, parsed in one pass (words_from_blocks)."""
    lines = [line.strip() for line in text.splitlines()]
    blocks = [list(block) for nonblank, block in groupby(lines, bool) if nonblank]
    if not blocks:
        raise ValueError("empty codebook file")
    return words_from_blocks(blocks)


def cmd_verify_code(args) -> list[tuple[str, str]]:
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
    return [(args.out, "\n".join(lines) + "\n")]


def cmd_transform(args) -> list[tuple[str, str]]:
    word = word_from_text(_read_text(args.infile))
    mapped = EquivalenceMap(args.map).on_word(word)
    return [(args.out, word_to_text(mapped))]


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
#                  calculator, text of the CSV extra column); a family that
#                  requires no --q is a binary bound and takes --q 2 alone
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


def cmd_bounds(args) -> list[tuple[str, str]]:
    flags, calculate, extra = BOUND_FAMILIES[args.family]
    _require(args, *flags)
    if "q" not in flags and args.q not in (None, 2):
        raise ValueError(
            f"bound family {args.family} is binary-only (q = 2), got --q {args.q}"
        )
    report = calculate(args)
    q = args.q if args.q is not None else 2
    lines = [
        "q,k,n,extra,family,value,floor,asymptotic",
        f"{q},{args.k},{args.n},{extra(args, report)},{report.family},{report.value},"
        f"{report.floor},{'true' if report.asymptotic else 'false'}",
    ]
    return [(args.out, "\n".join(lines) + "\n")]


def cmd_table(args) -> list[tuple[str, str]]:
    q = args.q if args.q is not None else 2
    spec = DollSpec(q, args.k, args.n)
    lines = ["l,supports,fills,inner,class_size"]
    lines += [",".join(map(str, row)) for row in spec.classes]
    return [(args.out, "\n".join(lines) + "\n")]


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

def cmd_roundtrip(args) -> list[tuple[str, str]]:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    family, spec = _family_spec(args, "roundtrip")
    model = family.model(spec)
    cases = failures = 0
    first_failure = None
    for label, message in family.messages(spec, args.trials, _default_seed(args)):
        word = family.encode(message, spec)
        for errors, rows, count in packed_outputs(word, model):
            if not (errors or family.sweeps_clean_word):
                continue
            received = ReceivedRows._of(rows, word.q, word.n)
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
    return [(args.out, "\n".join(lines) + "\n")]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_io(parser, reads: bool = True):
    """--out, and --in for a verb that reads an input file."""
    if reads:
        parser.add_argument(
            "--in",
            dest="infile",
            default="-",
            help="input file (word or received rows text); - for stdin",
        )
    parser.add_argument("--out", default="-", help="output file; - for stdout")


def _add_model(parser):
    """The --model, --e and --t flags that build_model reads."""
    parser.add_argument("--model", required=True, choices=MODEL_KINDS)
    parser.add_argument("--e", required=True, help="budget or comma list")
    parser.add_argument("--t", type=int, default=None)


def _add_params(parser, verb: str):
    """The parameter flags of verb: those of the families that serve it."""
    params = {param for name in _families_with(verb) for param in FAMILIES[name].params}
    for name in ("q", "k", "n", "t", "m", "a", "p"):
        if name in params:
            parser.add_argument(f"--{name}", type=int, default=None)
    if "targets" in params:
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
    _add_params(enc, "encode")
    _add_io(enc)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode received rows")
    dec.add_argument("--family", default=None, choices=_families_with("decode"))
    dec.add_argument("--spec", default=None, help="read key=value spec file")
    _add_params(dec, "decode")
    _add_io(dec)
    dec.set_defaults(func=cmd_decode)

    con = sub.add_parser("contains", help="membership check for class codes")
    con.add_argument("--family", required=True, choices=_families_with("contains"))
    _add_params(con, "contains")
    _add_io(con)
    con.set_defaults(func=cmd_contains)

    cor = sub.add_parser("corrupt", help="apply seeded random channel errors")
    _add_model(cor)
    cor.add_argument("--seed", type=int, default=None)
    _add_io(cor)
    cor.set_defaults(func=cmd_corrupt)

    ver = sub.add_parser("verify-code", help="oracle a codebook file")
    _add_model(ver)
    _add_io(ver)
    ver.set_defaults(func=cmd_verify_code)

    bou = sub.add_parser("bounds", help="bound calculators (CSV)")
    bou.add_argument("--family", required=True, choices=list(BOUND_FAMILIES))
    bou.add_argument("--e", type=int, default=None)
    bou.add_argument("--l", type=int, default=None)
    bou.add_argument("--budgets", default=None, help="comma-separated budgets")
    for name in ("q", "k", "n"):
        bou.add_argument(f"--{name}", type=int, default=None)
    _add_io(bou, reads=False)
    bou.set_defaults(func=cmd_bounds)

    tra = sub.add_parser(
        "transform",
        help="apply an equivalence map to a word: complement-reverse transports "
        "per-row substitution and deletion budgets, shift substitution budgets only",
    )
    tra.add_argument("--map", required=True, choices=MAP_NAMES)
    _add_io(tra)
    tra.set_defaults(func=cmd_transform)

    tab = sub.add_parser("table", help="enumeration-code class table (CSV)")
    tab.add_argument("what", choices=("doll",))
    tab.add_argument("--q", type=int, default=None)
    tab.add_argument("--k", type=int, required=True)
    tab.add_argument("--n", type=int, required=True)
    _add_io(tab, reads=False)
    tab.set_defaults(func=cmd_table)

    rou = sub.add_parser("roundtrip", help="encode->corrupt->decode sweep")
    rou.add_argument("--family", required=True, choices=_families_with("roundtrip"))
    rou.add_argument("--trials", type=int, default=20, help="sampled payloads")
    rou.add_argument("--seed", type=int, default=None)
    _add_params(rou, "roundtrip")
    _add_io(rou, reads=False)
    rou.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    """Run the verb of argv.  Its cmd_* function returns its writes as
    (path, text) pairs, - for stdout, and main makes them in that order;
    a ValueError or OSError on the way is one error line and exit 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path, text in args.func(args):
            if path == "-":
                sys.stdout.write(text)
            else:
                with open(path, "w", encoding="ascii") as handle:
                    handle.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
