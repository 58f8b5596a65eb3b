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

Exit codes: 0 success, 1 domain error (invalid word, precondition breach),
2 usage error.  Diagnostics go to stderr, data to stdout or --out.  The
same argv with the same seed always produces byte-identical output; the
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
from .channel import (
    ErrorModel,
    ReceivedRows,
    del_per_row,
    del_t_rows,
    del_total,
    oracle_is_code,
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

MESSAGE_FAMILIES = ("c1d", "lme1", "doll")
PAYLOAD_FAMILIES = ("c2d", "c3d", "c4d", "c1s", "c2s")
CONGRUENCE_FAMILIES = ("cong-binary-t", "cong-qary-1", "cong-qary-t")
MODEL_NAMES = (
    "sub-per-row",
    "sub-total",
    "sub-t-rows",
    "del-per-row",
    "del-total",
    "del-t-rows",
)


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


def _marker_spec(args):
    if args.family == "c2d":
        return C2DSpec(args.k, args.t, args.m)
    if args.family == "c3d":
        return C3DSpec(args.q, args.k, args.m)
    if args.family == "c4d":
        return C4DSpec(args.q, args.k, args.t, args.m)
    if args.family == "c1s":
        return C1SSpec(args.q, args.k, args.m)
    if args.family == "c2s":
        return C2SSpec(args.q, args.k, args.t, args.m)
    raise AssertionError(args.family)


def _spec_text(args, n: int) -> str:
    keys = ["family", "q", "k", "t", "m", "n", "a"]
    values = {
        "family": args.family,
        "q": getattr(args, "q", None),
        "k": getattr(args, "k", None),
        "t": getattr(args, "t", None),
        "m": getattr(args, "m", None),
        "n": n,
        "a": getattr(args, "a", None),
    }
    lines = [f"{key}={values[key]}" for key in keys if values[key] is not None]
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
# encode / decode / contains
# ---------------------------------------------------------------------------

def _encode_word(args) -> Word:
    family = args.family
    if family == "c1d":
        _require(args, "k", "n", "a", "message")
        return c1d_encode(_ints(args.message), args.a, args.k, args.n)
    if family == "lme1":
        _require(args, "k", "n", "a", "message")
        return cecc1_encode(_ints(args.message), args.a, args.k, args.n)
    if family == "doll":
        _require(args, "k", "n", "message")
        q = args.q if args.q is not None else 2
        return enc_doll(_ints(args.message), DollSpec(q, args.k, args.n))
    if family in PAYLOAD_FAMILIES:
        if family == "c2d":
            _require(args, "k", "t", "m")
        elif family == "c3d":
            _require(args, "q", "k", "m")
        else:
            _require(args, "q", "k", "m")
            if family in ("c4d", "c2s"):
                _require(args, "t")
        spec = _marker_spec(args)
        if args.message is not None:
            q = getattr(spec, "q", 2)
            payload = Word.from_ranks(_ints(args.message), q, args.k)
        else:
            payload = word_from_text(_read_text(args.infile))
        encoder = {
            "c2d": c2d_encode,
            "c3d": c3d_encode,
            "c4d": c4d_encode,
            "c1s": c1s_encode,
            "c2s": c2s_encode,
        }[family]
        return encoder(payload, spec)
    raise ValueError(f"family {family!r} has no encoder")


def cmd_encode(args) -> int:
    word = _encode_word(args)
    _write_text(args.out, word_to_text(word))
    if args.spec_out:
        _write_text(args.spec_out, _spec_text(args, word.n))
    return 0


def cmd_decode(args) -> int:
    if args.spec:
        _load_spec_file(args)
    if args.family is None:
        raise ValueError("--family is required (flag or spec file)")
    received = received_from_text(_read_text(args.infile))
    family = args.family
    if family == "c1d":
        _require(args, "a")
        word = c1d_decode(received, args.a)
        _write_text(args.out, ",".join(map(str, c1d_message(word))) + "\n")
    elif family == "lme1":
        _require(args, "a")
        word = cecc1_decode(received, args.a)
        _write_text(args.out, ",".join(map(str, cecc1_message(word))) + "\n")
    elif family == "doll":
        _require(args, "k", "n")
        q = args.q if args.q is not None else 2
        message = dec_doll(received, DollSpec(q, args.k, args.n))
        _write_text(args.out, ",".join(map(str, message)) + "\n")
    elif family in PAYLOAD_FAMILIES:
        spec = _marker_spec(args)
        decoder = {
            "c2d": c2d_decode,
            "c3d": c3d_decode,
            "c4d": c4d_decode,
            "c1s": c1s_decode,
            "c2s": c2s_decode,
        }[family]
        _write_text(args.out, word_to_text(decoder(received, spec)))
    elif family == "cong-binary-t":
        _require(args, "p", "targets")
        word = congruence_decode_binary_t(received, _ints(args.targets), args.p)
        _write_text(args.out, word_to_text(word))
    elif family == "cong-qary-1":
        _require(args, "a")
        word = congruence_decode_qary_one(received, args.a)
        _write_text(args.out, word_to_text(word))
    elif family == "cong-qary-t":
        _require(args, "p", "targets")
        word = congruence_decode_qary_t(received, _ints(args.targets), args.p)
        _write_text(args.out, word_to_text(word))
    else:
        raise ValueError(f"family {family!r} has no decoder")
    return 0


def cmd_contains(args) -> int:
    word = word_from_text(_read_text(args.infile))
    family = args.family
    if family == "c1d":
        _require(args, "a")
        verdict = c1d_contains(word, args.a)
    elif family == "lme1":
        _require(args, "a")
        verdict = cecc1_contains(word, args.a)
    elif family == "cong-binary-t":
        _require(args, "p", "targets")
        verdict = congruence_contains_binary_t(word, _ints(args.targets), args.p)
    elif family == "cong-qary-1":
        _require(args, "a")
        verdict = congruence_contains_qary_one(word, args.a)
    elif family == "cong-qary-t":
        _require(args, "p", "targets")
        verdict = congruence_contains_qary_t(word, _ints(args.targets), args.p)
    else:
        raise ValueError(f"family {family!r} has no membership predicate")
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

def cmd_bounds(args) -> int:
    family = args.family
    if family == "sp-per-row":
        _require(args, "q", "k", "n", "budgets")
        report = sp_bound_per_row(args.q, args.k, args.n, _ints(args.budgets))
        extra = "budgets=" + "|".join(map(str, _ints(args.budgets)))
    elif family == "sp-total":
        _require(args, "q", "k", "n", "e")
        report = sp_bound_total(args.q, args.k, args.n, args.e)
        extra = f"e={args.e}"
    elif family == "asym-total":
        _require(args, "q", "k", "n", "e")
        if args.l is not None:
            report = asym_bound_total(args.q, args.k, args.n, args.e, args.l)
        else:
            report = best_asym_total(args.q, args.k, args.n, args.e)
        extra = f"e={args.e} l={report.params['l']}"
    elif family == "asym-general":
        _require(args, "q", "k", "n", "budgets")
        report = asym_bound_general(args.q, args.k, args.n, _ints(args.budgets))
        extra = "budgets=" + "|".join(map(str, _ints(args.budgets)))
    elif family == "gspb-deletion":
        _require(args, "k", "n")
        report = gspb_deletion_bound(args.n, args.k)
        extra = ""
    elif family == "asym-deletion":
        _require(args, "k", "n")
        report = asym_deletion_bound(args.k, args.n)
        extra = ""
    else:
        raise ValueError(f"unknown bound family {family!r}")
    q = args.q if args.q is not None else 2
    lines = [
        "q,k,n,extra,family,value,floor,asymptotic",
        f"{q},{args.k},{args.n},{extra},{report.family},{report.value},"
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

def _dropped(word: Word, hits: dict[int, int]) -> ReceivedRows:
    rows = []
    for i, row in enumerate(word.rows()):
        if i in hits:
            p = hits[i]
            rows.append(row[:p] + row[p + 1 :])
        else:
            rows.append(row)
    return ReceivedRows(tuple(rows), word.q, word.n)


def _substituted(word: Word, hits: dict[int, tuple[int, int]]) -> ReceivedRows:
    rows = [list(r) for r in word.rows()]
    for row, (pos, value) in hits.items():
        rows[row][pos] = value
    return ReceivedRows(tuple(tuple(r) for r in rows), word.q, word.n)


def _deletion_patterns(k: int, n: int, t: int):
    yield {}
    for size in range(1, t + 1):
        for rows_subset in itertools.combinations(range(k), size):
            for positions in itertools.product(range(n), repeat=size):
                yield dict(zip(rows_subset, positions))


def _substitution_patterns(word: Word, t: int):
    """All patterns hitting <= t rows, one changed digit per hit row."""
    yield {}
    k, n, q = word.k, word.n, word.q
    rows = word.rows()
    for size in range(1, t + 1):
        for rows_subset in itertools.combinations(range(k), size):
            cell_choices = []
            for row in rows_subset:
                cells = [
                    (pos, value)
                    for pos in range(n)
                    for value in range(q)
                    if value != rows[row][pos]
                ]
                cell_choices.append(cells)
            for combo in itertools.product(*cell_choices):
                yield dict(zip(rows_subset, combo))


def _sample_payloads(q: int, k: int, m: int, count: int, seed: int):
    rng = random.Random(seed)
    big_q = alphabet_size(q, k)
    return [
        Word.from_ranks([rng.randrange(big_q) for _ in range(m)], q, k)
        for _ in range(count)
    ]


def _roundtrip_cases(args):
    """Yield (label, expected, received, decode) per corruption case."""
    family = args.family
    if family == "c1d":
        _require(args, "k", "n", "a")
        from .codes_deletion import c1d_message_length

        k, n, a = args.k, args.n, args.a
        for message in itertools.product(
            range(k + 1), repeat=c1d_message_length(k, n)
        ):
            word = c1d_encode(message, a, k, n)
            for row in range(k):
                for pos in range(n):
                    received = _dropped(word, {row: pos})
                    yield (
                        f"message={message} row={row} pos={pos}",
                        message,
                        received,
                        lambda r: c1d_message(c1d_decode(r, a)),
                    )
    elif family == "lme1":
        _require(args, "k", "n", "a")
        from .vt_core import lme_message_length

        k, n, a = args.k, args.n, args.a
        length = lme_message_length(n, k + 1)
        for message in itertools.product(range(k + 1), repeat=length):
            word = cecc1_encode(message, a, k, n)
            for pattern in _substitution_patterns(word, 1):
                received = _substituted(word, pattern)
                yield (
                    f"message={message} pattern={sorted(pattern.items())}",
                    message,
                    received,
                    lambda r: cecc1_message(cecc1_decode(r, a)),
                )
    elif family == "doll":
        _require(args, "k", "n")
        q = args.q if args.q is not None else 2
        spec = DollSpec(q, args.k, args.n)
        big_q = alphabet_size(q, args.k)
        for message in itertools.product(range(big_q), repeat=spec.m):
            word = enc_doll(message, spec)
            for pos in range(spec.n):
                old = word.rows()[0][pos]
                for value in range(q):
                    if value == old:
                        continue
                    received = _substituted(word, {0: (pos, value)})
                    yield (
                        f"message={message} pos={pos} value={value}",
                        message,
                        received,
                        lambda r: dec_doll(r, spec),
                    )
    elif family in PAYLOAD_FAMILIES:
        spec = _marker_spec(args)
        q = getattr(spec, "q", 2)
        decoder = {
            "c2d": c2d_decode,
            "c3d": c3d_decode,
            "c4d": c4d_decode,
            "c1s": c1s_decode,
            "c2s": c2s_decode,
        }[family]
        payloads = _sample_payloads(
            q, args.k, args.m, args.trials, _default_seed(args)
        )
        deletions = family in ("c2d", "c3d", "c4d")
        t = getattr(spec, "t", 1)
        for index, payload in enumerate(payloads):
            encoder = {
                "c2d": c2d_encode,
                "c3d": c3d_encode,
                "c4d": c4d_encode,
                "c1s": c1s_encode,
                "c2s": c2s_encode,
            }[family]
            word = encoder(payload, spec)
            if deletions:
                patterns = _deletion_patterns(word.k, spec.n, t)
                corrupt = _dropped
            else:
                patterns = _substitution_patterns(word, t)
                corrupt = _substituted
            for pattern in patterns:
                received = corrupt(word, pattern)
                yield (
                    f"payload#{index} pattern={sorted(pattern.items())}",
                    payload,
                    received,
                    lambda r: decoder(r, spec),
                )
    else:
        raise ValueError(f"family {family!r} has no roundtrip runner")


def cmd_roundtrip(args) -> int:
    cases = failures = 0
    first_failure = None
    for label, expected, received, decode in _roundtrip_cases(args):
        cases += 1
        try:
            ok = decode(received) == expected
        except ValueError:
            ok = False
        if not ok:
            failures += 1
            if first_failure is None:
                first_failure = (label, received)
    lines = [
        f"family={args.family}",
        f"cases={cases} failures={failures}",
        "PASS" if failures == 0 else "FAIL",
    ]
    if first_failure is not None:
        label, received = first_failure
        lines.append(f"first failure: {label}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="composite-dna",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    enc = sub.add_parser("encode", help="encode a message or payload word")
    enc.add_argument(
        "--family",
        required=True,
        choices=MESSAGE_FAMILIES + PAYLOAD_FAMILIES,
    )
    enc.add_argument("--message", default=None, help="comma-separated symbols")
    enc.add_argument("--spec-out", default=None, help="write key=value spec file")
    _add_params(enc)
    _add_io(enc)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode received rows")
    dec.add_argument(
        "--family",
        default=None,
        choices=MESSAGE_FAMILIES + PAYLOAD_FAMILIES + CONGRUENCE_FAMILIES,
    )
    dec.add_argument("--spec", default=None, help="read key=value spec file")
    _add_params(dec)
    _add_io(dec)
    dec.set_defaults(func=cmd_decode)

    con = sub.add_parser("contains", help="membership check for class codes")
    con.add_argument(
        "--family",
        required=True,
        choices=("c1d", "lme1") + CONGRUENCE_FAMILIES,
    )
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
    bou.add_argument(
        "--family",
        required=True,
        choices=(
            "sp-per-row",
            "sp-total",
            "asym-total",
            "asym-general",
            "gspb-deletion",
            "asym-deletion",
        ),
    )
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
    rou.add_argument(
        "--family",
        required=True,
        choices=MESSAGE_FAMILIES + PAYLOAD_FAMILIES,
    )
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
