"""Truth tables and algebraic normal form for Boolean functions on few inputs.

Functions are elements of F2[x_1..x_k] / (x_i^2 - x_i), each held as its
truth table packed into one int, whether built from its values or from its
ANF coefficients; the README's ``boolfun`` section describes the design.
"""

from functools import lru_cache
from operator import add, xor

from .errors import CapacityError

SOFT_ARITY_CAP = 5
HARD_ARITY_CAP = 16


def _check_arity(arity, allow_big):
    """Raise unless 0 <= arity <= HARD_ARITY_CAP, and arity <=
    SOFT_ARITY_CAP without ``allow_big``: the one arity check, made by
    every entry point that takes an arity before it allocates."""
    if arity < 0:
        raise ValueError(f"arity must be nonnegative, got {arity}")
    if arity > HARD_ARITY_CAP:
        raise CapacityError(
            f"arity {arity} exceeds the hard cap of {HARD_ARITY_CAP}",
            arity=arity,
        )
    if arity > SOFT_ARITY_CAP and not allow_big:
        raise CapacityError(
            f"arity {arity} exceeds the soft cap of {SOFT_ARITY_CAP}; "
            "pass allow_big=True to override",
            arity=arity,
        )


def _check_bits(seq, what):
    # 0.0 and 1.0 compare equal to 0 and 1 but are not bits; bools are
    for v in seq:
        if not isinstance(v, int) or v not in (0, 1):
            raise ValueError(f"{what} must hold only the integers 0/1, got {v!r}")


def point_to_index(point):
    """Map a point (bit vector ``x_1..x_k``) to its table index.

    Variable ``x_i`` is bit i - 1 of the index, so a point sits at
    ``sum(x_i << (i-1))`` of a truth table, and the monomial over the
    variable subset S at ``sum(1 << (i-1) for i in S)`` of a coefficient
    vector: points and subsets share one bijection with ``range(2**k)``.
    """
    idx = 0
    for i, bit in enumerate(point):
        idx |= bit << i
    return idx


def index_to_point(arity, index):
    """Inverse of :func:`point_to_index`."""
    return tuple((index >> i) & 1 for i in range(arity))


def index_to_subset(index):
    """The variables of a subset mask, as a frozenset of 1-based ids."""
    out = []
    i = 1
    while index:
        if index & 1:
            out.append(i)
        index >>= 1
        i += 1
    return frozenset(out)


@lru_cache(maxsize=None)
def variable_masks(arity):
    """variable_masks(k)[j] has bit m set iff point m has x_{j+1} = 1: 2^j
    points with x_{j+1} = 0, then 2^j with x_{j+1} = 1, repeated."""
    full = (1 << (1 << arity)) - 1
    return tuple(full // ((1 << (1 << j)) + 1) << (1 << j) for j in range(arity))


def xor_transform(bits, arity):
    """Subset-XOR transform on a packed 2**arity-bit vector: c[m] is the
    XOR of t over all submasks of m.  It is its own inverse, so it maps a
    table to its ANF and an ANF to its table."""
    for i, upper in enumerate(variable_masks(arity)):
        bits ^= (bits << (1 << i)) & upper
    return bits


class _PackedVector:
    """A Boolean function on ``arity`` inputs, held as its truth table
    packed into one int, whichever constructor built it."""

    __slots__ = ("arity", "_bits")
    _accessor = _noun = _what = ""  # set by each subclass
    # a constructor's packed coordinates to the table int, and back
    _coords = staticmethod(lambda bits, arity: bits)

    def _init(self, arity, entries, allow_big):
        _check_arity(arity, allow_big)
        entries = tuple(entries)
        if len(entries) != 1 << arity:
            raise ValueError(
                f"expected {1 << arity} {self._noun} for arity {arity}, "
                f"got {len(entries)}"
            )
        _check_bits(entries, self._what)
        self.arity = arity
        self._bits = self._coords(sum(v << m for m, v in enumerate(entries)), arity)

    @classmethod
    def _from_int(cls, arity, bits, allow_big):
        _check_arity(arity, allow_big)
        if not 0 <= bits < 1 << (1 << arity):
            raise ValueError(f"packed value {bits} out of range for arity {arity}")
        return cls._of(arity, cls._coords(bits, arity))

    @classmethod
    def _of(cls, arity, table):
        # the function whose table int is `table`, unchecked
        self = object.__new__(cls)
        self.arity = arity
        self._bits = table
        return self

    def _entries(self, bits):
        return tuple([(bits >> m) & 1 for m in range(1 << self.arity)])

    values = property(
        lambda self: self._entries(self._bits),
        doc="Tuple of 2**arity values; values[m] is the value at index m.",
    )
    coeffs = property(
        lambda self: self._entries(xor_transform(self._bits, self.arity)),
        doc="Tuple of 2**arity ANF coefficients; coeffs[m] belongs to subset mask m.",
    )

    def to_int(self):
        """Packed values of a table, coefficients of a vector; bit m holds entry m."""
        return self._coords(self._bits, self.arity)

    def __eq__(self, other):
        if not isinstance(other, _PackedVector):
            return NotImplemented
        return self.arity == other.arity and self._bits == other._bits

    def __hash__(self):
        return hash((self.arity, self._bits))

    def __repr__(self):
        entries = list(getattr(self, self._accessor))
        return f"{type(self).__name__}(arity={self.arity}, {self._accessor}={entries})"


class TruthTable(_PackedVector):
    """The function with value vector ``values``: values[m] is its value at
    the point indexed by m.  ``allow_big`` permits arities above the soft
    cap (``_check_arity``)."""

    __slots__ = ()
    _accessor, _noun, _what = "values", "values", "truth table values"

    def __init__(self, arity, values, allow_big=False):
        self._init(arity, values, allow_big)

    @classmethod
    def from_int(cls, arity, bits, allow_big=False):
        """Build a table from its packed integer (bit m = value at index m)."""
        return cls._from_int(arity, bits, allow_big)


class CoeffVector(_PackedVector):
    """The function with ANF coefficients ``coeffs``: coeffs[m] is the
    coefficient of the monomial over the subset with characteristic bit
    vector m (m = 0 is the constant term)."""

    __slots__ = ()
    _accessor, _noun, _what = "coeffs", "coefficients", "ANF coefficients"
    _coords = staticmethod(xor_transform)

    def __init__(self, arity, coeffs, allow_big=False):
        self._init(arity, coeffs, allow_big)

    @classmethod
    def from_int(cls, arity, bits, allow_big=False):
        """Build a vector from its packed integer (bit m = coeffs[m])."""
        return cls._from_int(arity, bits, allow_big)


def tt_to_anf(table):
    """The function as a ``CoeffVector``: its algebraic normal form, the
    unique c with table(x) the XOR of c_S over the subsets S of
    support(x), at every point x."""
    return CoeffVector._of(table.arity, table._bits)


def anf_to_tt(coeffs):
    """The function as a ``TruthTable``; inverse of :func:`tt_to_anf`."""
    return TruthTable._of(coeffs.arity, coeffs._bits)


def evaluate(table, point):
    """Value of the function at one point (bit vector of length arity)."""
    point = tuple(point)
    if len(point) != table.arity:
        raise ValueError(
            f"point has length {len(point)}, expected {table.arity}"
        )
    _check_bits(point, "point")
    return (table._bits >> point_to_index(point)) & 1


def essential_vars(table):
    """Variables the function depends on, as 1-based ids: those whose flip
    changes the value at some point."""
    bits = table._bits
    out = []
    for i, upper in enumerate(variable_masks(table.arity)):
        s = 1 << i
        if (bits & upper) >> s != bits & (upper >> s):
            out.append(i + 1)
    return frozenset(out)


@lru_cache(maxsize=None)
def _monomial_order(arity):
    # subset masks and texts of the monomials on `arity` variables, in
    # print order: by degree, then by variable ids
    monomials = sorted((sorted(index_to_subset(m)), m) for m in range(1 << arity))
    monomials.sort(key=lambda vm: len(vm[0]))
    masks = tuple(m for _, m in monomials)
    texts = tuple("*".join(f"x{i}" for i in vs) or "1" for vs, _ in monomials)
    return masks, texts


def _byte_rows(units, zero, plus):
    # rows[j][v] sums, by `plus` from `zero`, units[8j + i] over the set bits
    # i of v: one row per byte of a packed int, padded to the 4 bytes of a
    # table at SOFT_ARITY_CAP by rows that hold only the zero entry
    rows = []
    for j in range(0, len(units), 8):
        row = [zero]
        for u in units[j : j + 8]:
            row += [plus(r, u) for r in row]
        rows.append(tuple(row))
    return rows + [(zero,)] * (4 - len(rows))


@lru_cache(maxsize=None)
def _anf_rows(arity):
    # Per-byte tables that render the ANF of a table int up to the soft
    # cap.  The ANF is linear over F2, so it is the XOR of its bytes' rows:
    # row j of the first maps byte value v to the ANF of v << 8j, with
    # monomials renumbered into print order.  Row j of the second maps byte
    # j of a renumbered ANF to its monomials' texts, each led by " + ".
    masks, texts = _monomial_order(arity)
    units = []
    for point in range(len(masks)):
        c = xor_transform(1 << point, arity)
        units.append(sum(1 << p for p, m in enumerate(masks) if (c >> m) & 1))
    return _byte_rows(units, 0, xor), _byte_rows([" + " + t for t in texts], "", add)


def _anf_text(bits, arity):
    # anf_string of the ANF of the table packed in the int `bits`
    if arity > SOFT_ARITY_CAP:
        # monomial m is in the ANF when binary digit m of its int is set
        digits = format(xor_transform(bits, arity), f"0{1 << arity}b")[::-1]
        masks, texts = _monomial_order(arity)
        return " + ".join(t for m, t in zip(masks, texts) if digits[m] == "1") or "0"
    (a0, a1, a2, a3), (t0, t1, t2, t3) = _anf_rows(arity)
    r = a0[bits & 255] ^ a1[bits >> 8 & 255] ^ a2[bits >> 16 & 255] ^ a3[bits >> 24]
    text = "".join((t0[r & 255], t1[r >> 8 & 255], t2[r >> 16 & 255], t3[r >> 24]))
    return text[3:] or "0"


def anf_string(f):
    """Render the ANF of a function as '+'-joined monomials, e.g. ``1 + x1
    + x1*x3``: ordered by degree, then by variable ids, each in increasing
    order; the zero polynomial renders as ``0``."""
    return _anf_text(f._bits, f.arity)


def parse_anf(text, arity, allow_big=False):
    """Parse the output format of :func:`anf_string` back to coefficients.

    Each monomial is ``1`` or ``*``-joined ``x<i>``, 1 <= i <= arity.
    Repeated variables or monomials are rejected rather than reduced, so a
    typo cannot silently cancel.
    """
    _check_arity(arity, allow_big)
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial string")
    coeffs = 0
    if text == "0":
        return CoeffVector.from_int(arity, coeffs, allow_big)
    for term in text.split("+"):
        term = term.strip()
        mask = 0
        if term != "1":
            for factor in term.split("*"):
                factor = factor.strip()
                # x, then ASCII digits without a leading zero: int() alone
                # would also read "x 1", "x01", "x1_0" and non-ASCII digits
                digits = factor[1:]
                if not (
                    factor.startswith("x")
                    and digits.isascii()
                    and digits.isdigit()
                    and digits[0] != "0"
                ):
                    raise ValueError(f"bad monomial factor {factor!r}")
                i = int(digits)
                if not 1 <= i <= arity:
                    raise ValueError(
                        f"variable x{i} out of range for arity {arity}"
                    )
                bit = 1 << (i - 1)
                if mask & bit:
                    raise ValueError(f"repeated variable x{i} in {term!r}")
                mask |= bit
        if (coeffs >> mask) & 1:
            raise ValueError(f"repeated monomial {term!r}")
        coeffs |= 1 << mask
    return CoeffVector.from_int(arity, coeffs, allow_big)
