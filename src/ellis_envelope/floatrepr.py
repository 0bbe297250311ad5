"""The text of ``float.__repr__`` for whole arrays of finite doubles.

``repr`` prints the shortest decimal that reads back as the same double, the
nearest such decimal when there are several (Steele-White, Gay's dtoa).
Ryu (Adams 2018, PLDI) finds those digits with a fixed 64 x 128-bit product
per double, which vectorizes: ``shortest`` is Ryu's ``d2d`` on arrays, with
the 128-bit arithmetic done on 32-bit limbs held in uint64, and ``reprs``
lays the digits out as ``repr`` does. Every integer array has an explicit
dtype, since a uint64 array mixed with an int64 one becomes float64 under
numpy 1.x's value-based casting.

Work goes in slices of ``_CHUNK`` doubles, one report block of [re, im]
pairs, so that each temporary holds at most a few hundred KB however long
the table is.
"""

import numpy as np

_CHUNK = 8192

_U = np.uint64
_LO32 = _U(0xFFFFFFFF)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_POW5 = np.array([5**k for k in range(22)], dtype=np.uint64)
# the four ASCII digits of 0..9999
_DIGITS4 = (np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10 + 48).astype(np.uint8)


def _exponent_table() -> dict[str, np.ndarray]:
    """Everything Ryu's step 3 reads off the binary exponent, for each biased
    exponent 0..2046 (finite doubles): the decimal exponent e10 (q, or q + e2
    when e2 < 0), the multiplier as its low and high 64 bits (for e2 >= 0,
    2**(bitlen(5**q) + 124) // 5**q + 1; otherwise the top 125 bits of
    5**(-e2 - q)), the shift, and what the trailing-zero tests need."""
    table = [(1 << ((5**q).bit_length() + 124)) // 5**q + 1 for q in range(342)]
    table += [(5**i << 125) >> (5**i).bit_length() for i in range(326)]
    e2 = np.maximum(np.arange(2047), 1) - (1023 + 52 + 2)
    up = e2 >= 0
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3), ((-e2 * 732923) >> 20) - (e2 < -1))
    k = np.where(up, q, -e2 - q)  # the power of 5 in the multiplier
    bits5 = ((k * 1217359) >> 19) + 1
    mul = [table[row] for row in np.where(up, k, 342 + k).tolist()]
    return {
        "lo64": np.array([v & (2**64 - 1) for v in mul], dtype=np.uint64),
        "hi64": np.array([v >> 64 for v in mul], dtype=np.uint64),
        "dist": np.where(up, q - e2 + bits5 + 60, q - bits5 + 61).astype(np.uint64),
        "e10": np.where(up, q, q + e2),
        # e2 >= 0 and q <= 21: a value ends in zeros iff 5**q divides it
        "q5": np.where(up & (q <= 21), q, -1),
        # e2 < 0 and q < 63: vr ends in zeros iff 2**q divides mv (mask 2**q - 1)
        "tz_mask": np.where(~up & (q < 63), (1 << np.minimum(q, 62)) - 1, -1).astype(np.uint64),
        "tiny": ~up & (q <= 1),  # vr ends in zeros, and vm does when mm_shift is 1
    }


_EXP = _exponent_table()


def _mul_wide(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of a * b, for uint64 a < 2**56 and b, from
    32 x 32-bit products."""
    a0, a1, b0, b1 = a & _LO32, a >> _U(32), b & _LO32, b >> _U(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U(32)) + (p01 & _LO32) + (p10 & _LO32)
    return a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32)), a * b


def _mul_shift_all(mv, mm_shift, lo64, hi64, dist) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's ``mulShiftAll64``: floor(m * mul / 2**(64 + dist)) for m = mv
    (returned first) and for the bounds mv + 2 and mv - 1 - mm_shift (stacked
    second), where mv < 2**55, mul = hi64 * 2**64 + lo64 < 2**126 and
    0 < dist < 64. A bound's quotient is mv's plus the carry that 2 * mul or
    -(1 + mm_shift) * mul brings to mv's exact remainder."""
    high0, lo = _mul_wide(mv, lo64)
    high, low = _mul_wide(mv, hi64)
    low += high0
    high += low < high0
    # mv * mul = (high * 2**64 + low) * 2**64 + lo
    vr = (high << (_U(64) - dist)) | (low >> dist)
    rem = low & ((_U(1) << dist) - _U(1))
    bounds = np.empty((2, len(mv)), dtype=np.uint64)
    # + 2 * mul: 2 * hi64 plus the carries of lo + lo64 + lo64
    sum1 = lo + lo64
    carry = (sum1 < lo64).astype(np.uint64) + (sum1 + lo64 < lo64)
    bounds[0] = vr + ((rem + (hi64 << _U(1)) + carry) >> dist)
    # - (1 + mm_shift) * mul, offset by 2**63 to stay unsigned
    borrow = (lo < lo64).astype(np.uint64) + ((lo - lo64 < lo64) & (mm_shift == 1))
    half = _U(1 << 63)
    bounds[1] = vr + ((rem + half - hi64 * (mm_shift + _U(1)) - borrow) >> dist) - (half >> dist)
    return vr, bounds


def shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's ``d2d``: the digits (uint64) and decimal exponent (int64) of the
    shortest decimal that reads back as each finite double of ``x``, so that
    |x| = digits * 10**exponent. Zero gives (0, 0)."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    ieee = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int16)
    zero = (bits << _U(1)) == 0
    mv = bits & _U((1 << 52) - 1)
    mm_shift = ((mv != 0) | (ieee <= 1)).astype(np.uint64)
    mv |= ((ieee > 0).astype(np.uint64) << _U(52)) | zero  # m2, and 1 for a zero
    even = (mv & _U(1)) == 0
    mv <<= _U(2)

    # step 3: vr and its bounds vp, vm = (mv, mv + 2, mv - 1 - mm_shift) * 2**e2 / 10**e10
    vr, bounds = _mul_shift_all(mv, mm_shift, *(_EXP[key].take(ieee) for key in ("lo64", "hi64", "dist")))
    vp = bounds[0]
    # does mv (or a bound) times 2**e2 / 10**e10 end in exact zeros?
    vr_tz = (mv & _EXP["tz_mask"].take(ieee)) == 0
    tiny = _EXP["tiny"].take(ieee)
    vm_tz = tiny & even & (mm_shift == 1)
    vp -= tiny & ~even
    q5 = _EXP["q5"].take(ieee)
    small = np.flatnonzero(q5 >= 0)
    if small.size:
        p5, mvs, ev = _POW5[q5[small]], mv[small], even[small]
        five = mvs % _U(5) == 0
        vr_tz[small] = five & (mvs % p5 == 0)
        vm_tz[small] = ~five & ev & ((mvs - _U(1) - mm_shift[small]) % p5 == 0)
        vp[small] -= ~five & ~ev & ((mvs + _U(2)) % p5 == 0)

    # step 4: drop the r last digits, for the largest r with a multiple of
    # 10**r in (vm, vp]. r < 20, so five halving steps find it.
    vm = bounds[1].copy()
    r = np.zeros(len(bits), dtype=np.int8)
    for step in (16, 8, 4, 2, 1):
        cut = bounds // _POW10[step]
        more = cut[0] > cut[1]
        bounds = np.where(more, cut, bounds)
        r += more.view(np.int8) * np.int8(step)
    p1 = _POW10.take(np.maximum(r - 1, 0))
    head = vr // p1
    vr_tz &= vr == head * p1  # the digits dropped before the last one are zeros
    vr = head // _U(10)
    last = np.where(r > 0, head - vr * _U(10), _U(0))
    vr = np.where(r > 0, vr, head)
    vm_tz &= vm == bounds[1] * _POW10.take(r)
    vm = bounds[1]
    # an exact lower bound ending in zeros: those zeros go too
    idx = np.flatnonzero(vm_tz)
    while idx.size:
        idx = idx[vm[idx] % _U(10) == 0]
        vr_tz[idx] &= last[idx] == 0
        last[idx] = vr[idx] % _U(10)
        vr[idx] //= _U(10)
        vm[idx] //= _U(10)
        r[idx] += 1
    last[vr_tz & (last == 5) & (vr % _U(2) == 0)] = 4  # a tie rounds to even
    digits = vr + (((vr == vm) & (~even | ~vm_tz)) | (last >= 5))
    digits[zero] = 0
    return digits, np.where(zero, 0, _EXP["e10"].take(ieee) + r)


# One row per byte of a double's text, each double a column of a (30, n)
# array: sign, "0.000", 18 places for the digits and point, "e+000",
# separator. Small integers are int8 and choices are uint8 arithmetic, which
# numpy runs far faster than int64 broadcasts and ``np.where``.
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 18 + b"e+000,", dtype=np.uint8)[:, None]
_K = np.arange(18, dtype=np.int8)[:, None]


def _chunk_reprs(x: np.ndarray, sep: np.ndarray) -> bytes:
    digits, exponent = shortest(x)
    olen = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1).astype(np.int8)
    decpt = (exponent + olen).astype(np.int16)  # x = 0.d1d2... * 10**decpt
    sci = (decpt <= -4) | (decpt > 16)
    d8 = np.where(sci, 0, decpt).astype(np.int8)
    n = len(x)
    buf = np.repeat(_TEMPLATE, n, axis=1)

    # the digits, left-aligned in 18 places and padded with zeros
    rest = digits * _POW10.take(18 - olen)
    groups = np.empty((5, n), dtype=np.int16)  # of four digits each
    for row in range(4, 0, -1):
        quot = rest // _U(10000)
        groups[row] = rest - quot * _U(10000)
        rest = quot
    groups[0] = rest
    text = _DIGITS4.take(groups, axis=0).transpose(0, 2, 1).reshape(20, n)
    # the point goes before digit `point` (18: none) and shifts the rest right
    point = np.where(sci, np.where(olen > 1, 1, 18), np.where(d8 > 0, d8, 18)).astype(np.int8)
    before, after = text[2:], text[1:-1]
    cell = after + (before - after) * (_K < point)
    cell += (np.uint8(ord(".")) - cell) * (_K == point)
    buf[6:24] = cell
    e = np.abs(decpt - 1)
    buf[25] += (decpt < 1).view(np.uint8) * np.uint8(ord("-") - ord("+"))
    buf[26:29] = _DIGITS4.take(e, axis=0).T[1:]
    buf[29] = sep

    # zero the bytes this double's text does not use; they drop out below
    body = np.where(sci, olen + (olen > 1), np.where(d8 > 0, np.maximum(olen, d8 + 1) + 1, olen)).astype(np.int8)
    buf[0] *= np.signbit(x)
    buf[1:6] *= _K[:5] < np.where(~sci & (d8 <= 0), 2 - d8, 0).astype(np.int8)
    buf[6:24] *= _K < body
    buf[24:29] *= sci
    buf[26] *= e >= 100
    return buf.T.tobytes().translate(None, b"\0")


def reprs(x: np.ndarray, sep: np.ndarray) -> bytes:
    """ASCII bytes of ``repr(v)`` for each finite double v of ``x``, each
    followed by its byte of ``sep`` (uint8, one per double; 0 adds nothing).

    ``repr`` writes d.ddde+XX when the point's place decpt (x = 0.ddd *
    10**decpt) falls outside -4 < decpt <= 16, and positional text with a
    digit on each side of the point otherwise. Each double gets a 30-byte
    column that holds either layout; the bytes its text does not use are
    zero and are dropped.
    """
    return b"".join(
        _chunk_reprs(x[start : start + _CHUNK], sep[start : start + _CHUNK])
        for start in range(0, len(x), _CHUNK)
    )
