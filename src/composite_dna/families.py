"""The code families, each described once.

Every construction of the package (c1d, c2d, c3d, c4d, doll, lme1, c1s,
c2s) and every congruence-class family (cong-binary-t, cong-qary-1,
cong-qary-t) is one record of the FAMILIES table: its parameters, the
parameters each verb requires, its spec builder, encoder, decoder,
membership test, message space and the native error model that a roundtrip
sweeps.  The command-line front end derives its verbs from this table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .alphabet import Word, alphabet_size
from .channel import SplitMix64, del_t_rows, del_total, sub_per_row, sub_t_rows, sub_total
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
from .vt_core import lme_message_length


@dataclass(frozen=True)
class Family:
    """One code family.

    ``spec`` takes the family's ``params`` by keyword (one left out takes
    its default) and builds the spec that the other fields take last.
    ``flags`` maps each verb the family supports to the parameters that verb
    requires, in the order they are checked.  ``decode`` returns the message
    of a message family and the payload word of the others.
    ``message_space(spec)`` gives (alphabet size, length) of the messages a
    roundtrip enumerates; families without one sample payloads instead.
    ``model`` gives the channel model the code corrects, whose every
    distinct output (channel.packed_outputs) a roundtrip decodes once,
    weighted by the number of error patterns that give it.  ``sweeps_clean_word`` is
    False for doll alone: its sweep leaves out the error-free word, n cases
    per message.  The fields name the codec functions inside lambdas, so
    they are looked up at call time.
    """

    params: tuple[str, ...]
    flags: dict[str, tuple[str, ...]]
    spec: Callable
    decode: Callable
    encode: Callable | None = None
    contains: Callable | None = None
    message_space: Callable | None = None
    model: Callable | None = None
    sweeps_clean_word: bool = True

    def messages(self, spec, trials: int, seed: int):
        """(label, message) pairs of a sweep: every message of a message
        family, or ``trials`` payloads whose ranks are drawn in turn by one
        channel.SplitMix64(seed), the generator of the channel's seeded
        corruption."""
        if self.message_space is not None:
            symbols, length = self.message_space(spec)
            return (
                (f"message={message}", message)
                for message in itertools.product(range(symbols), repeat=length)
            )
        rng = SplitMix64(seed)
        big_q = alphabet_size(spec.q, spec.k)
        draws = ([rng.below(big_q) for _ in range(spec.m)] for _ in range(trials))
        return [
            (f"payload#{index}", Word.from_ranks(ranks, spec.q, spec.k))
            for index, ranks in enumerate(draws)
        ]


_PAYLOAD_VERBS = ("encode", "decode", "roundtrip")
_CONGRUENCE_VERBS = ("decode", "contains")


def _uniform(verbs, spec, *params, **fields) -> Family:
    """A family whose every verb requires all of ``params``, in that order."""
    return Family(params, dict.fromkeys(verbs, params), spec, **fields)


@dataclass(frozen=True)
class _ClassCode:
    """c1d and lme1: the binary class code {VT-type sum = a} of length n over
    k rows, with a systematic encoder; decode and contains need only a."""

    a: int
    k: int | None = None
    n: int | None = None
    q = 2


def _class_code(**fields) -> Family:
    flags = {
        "encode": ("k", "n", "a", "message"),
        "decode": ("a",),
        "contains": ("a",),
        "roundtrip": ("k", "n", "a"),
    }
    return Family(("k", "n", "a"), flags, _ClassCode, **fields)


FAMILIES = {
    "c1d": _class_code(
        encode=lambda message, spec: c1d_encode(message, spec.a, spec.k, spec.n),
        decode=lambda received, spec: c1d_message(c1d_decode(received, spec.a)),
        contains=lambda word, spec: c1d_contains(word, spec.a),
        message_space=lambda spec: (spec.k + 1, c1d_message_length(spec.k, spec.n)),
        model=lambda _: del_total(1),
    ),
    "lme1": _class_code(
        encode=lambda message, spec: cecc1_encode(message, spec.a, spec.k, spec.n),
        decode=lambda received, spec: cecc1_message(cecc1_decode(received, spec.a)),
        contains=lambda word, spec: cecc1_contains(word, spec.a),
        message_space=lambda spec: (spec.k + 1, lme_message_length(spec.n, spec.k + 1)),
        model=lambda _: sub_total(1),
    ),
    "doll": Family(
        ("q", "k", "n"),
        {"encode": ("k", "n", "message"), "decode": ("k", "n"), "roundtrip": ("k", "n")},
        lambda k, n, q=2: DollSpec(q, k, n),
        encode=lambda message, spec: enc_doll(message, spec),
        decode=lambda received, spec: dec_doll(received, spec),
        message_space=lambda spec: (alphabet_size(spec.q, spec.k), spec.m),
        model=lambda spec: sub_per_row(1, *[0] * (spec.k - 1)),
        sweeps_clean_word=False,
    ),
    "c2d": _uniform(
        _PAYLOAD_VERBS, C2DSpec, "k", "t", "m",
        encode=lambda payload, spec: c2d_encode(payload, spec),
        decode=lambda received, spec: c2d_decode(received, spec),
        model=lambda spec: del_t_rows(spec.t, [1] * spec.t),
    ),
    "c3d": _uniform(
        _PAYLOAD_VERBS, C3DSpec, "q", "k", "m",
        encode=lambda payload, spec: c3d_encode(payload, spec),
        decode=lambda received, spec: c3d_decode(received, spec),
        model=lambda _: del_t_rows(1, [1]),
    ),
    "c4d": _uniform(
        _PAYLOAD_VERBS, C4DSpec, "q", "k", "m", "t",
        encode=lambda payload, spec: c4d_encode(payload, spec),
        decode=lambda received, spec: c4d_decode(received, spec),
        model=lambda spec: del_t_rows(spec.t, [1] * spec.t),
    ),
    "c1s": _uniform(
        _PAYLOAD_VERBS, C1SSpec, "q", "k", "m",
        encode=lambda payload, spec: c1s_encode(payload, spec),
        decode=lambda received, spec: c1s_decode(received, spec),
        model=lambda _: sub_total(1),
    ),
    "c2s": _uniform(
        _PAYLOAD_VERBS, C2SSpec, "q", "k", "m", "t",
        encode=lambda payload, spec: c2s_encode(payload, spec),
        decode=lambda received, spec: c2s_decode(received, spec),
        model=lambda spec: sub_t_rows(spec.t, [1] * spec.t),
    ),
    "cong-binary-t": _uniform(
        _CONGRUENCE_VERBS, lambda p, targets: (targets, p), "p", "targets",
        decode=lambda received, spec: congruence_decode_binary_t(received, *spec),
        contains=lambda word, spec: congruence_contains_binary_t(word, *spec),
    ),
    "cong-qary-1": _uniform(
        _CONGRUENCE_VERBS, lambda a: a, "a",
        decode=lambda received, a: congruence_decode_qary_one(received, a),
        contains=lambda word, a: congruence_contains_qary_one(word, a),
    ),
    "cong-qary-t": _uniform(
        _CONGRUENCE_VERBS, lambda p, targets: (targets, p), "p", "targets",
        decode=lambda received, spec: congruence_decode_qary_t(received, *spec),
        contains=lambda word, spec: congruence_contains_qary_t(word, *spec),
    ),
}
