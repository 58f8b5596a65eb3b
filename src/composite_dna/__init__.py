"""Error-correcting codes over the k-resolution ordered composite channel."""

from types import ModuleType as _ModuleType

from .alphabet import (
    Letter,
    Word,
    all_letters,
    alphabet_size,
    letter_is_valid,
    letter_rank,
    letter_unrank,
    letter_values,
    word_from_text,
    word_to_rank_text,
    word_to_text,
)
from .bounds import (
    BoundReport,
    gspb_deletion_bound,
    sp_bound_per_row,
    sp_bound_total,
    v_size,
)
from .channel import (
    ErrorModel,
    OracleResult,
    ReceivedRows,
    del_per_row,
    del_t_rows,
    del_total,
    oracle_is_code,
    random_errors,
    raw_received_set,
    received_from_text,
    received_from_word,
    received_to_text,
    sub_per_row,
    sub_t_rows,
    sub_total,
    valid_sub_ball,
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
    cecc1_message_length,
    dec_doll,
    doll_m,
    doll_size,
    enc_doll,
)
from .equivalence import EquivalenceMap, transport_code
from .vt_core import DecodeFailure

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
