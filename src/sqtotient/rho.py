"""Counting k-tuples with a prescribed square sum modulo n.

rho(k, lam, n) is the number of (x_1, ..., x_k) in (Z/nZ)^k with
x_1^2 + ... + x_k^2 = lam (mod n). By the Chinese remainder theorem it is
the product of its values at the prime powers p^e of n, for every lam, and
one local count serves every residue class:

  * a solution in which some coordinate is a unit mod p is nonsingular, so
    it lifts from the base modulus (p when p is odd, 8 when p = 2) to
    p^(k-1) solutions per extra power of p;
  * a solution in which every coordinate is divisible by p is p times a
    solution for lam / p^2 two powers down, so it exists only when
    p^2 | lam (descent).

At an odd prime the count is p^(k-1) plus a signed power of p picked by the
parity of k and the quadratic character of lam (Euler criterion), lam = 0
included. The moduli 2, 4, 8 are read from the residue vector, which
comes from Gauss sums: with S(t) the sum of zeta_8^(t x^2) over x mod 8,
8 rho(k, lam, 8) is the sum over t mod 8 of S(t)^k zeta_8^(-t lam), and
S(t) is 8, 4 + 4i, 0, 4 - 4i at t = 0, 2, 4, 6 and 4 zeta_8^t at odd t.
(1 + i)^2 = 2i makes every term a signed power of two, so the counts are
exact integer arithmetic; those mod 4 and mod 2 follow by folding, since
x^2 mod 8 depends on x mod 4 only. For lam a unit mod n no descent step is
taken, and the count is the paper's closed form.

The classical trigonometric closed forms for moduli 2, 4, 8 are also
implemented, exactly, on integer pairs (a, b) standing for a + b sqrt(2):
twice every sine and cosine that appears is 0, +/-2 or +/-sqrt(2), so the
tables hold the doubled values, a half-integer power of two swaps and
doubles the parts, and each form divides its sum once by a power of two
after checking that the sqrt(2) parts cancel. They serve as a cross-check
against the residue vector, never as the primary path.

The census kernel raises the census of squares mod n to the k-th power
under cyclic convolution, by repeated squaring. Each convolution is one
product of Python ints, into which the vectors are packed at a fixed
slot width per residue (Kronecker substitution), and the census is a
tuple of ints at every n and k. It is the oracle
(``sum_of_squares_census``, ``rho_brute``) that the tier-1 tests check
against literal enumeration; a census predicted over the budget is
refused before allocating, and ``rho`` never reaches it.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from math import log2

from .core_arith import BudgetExceededError, _check_budget, as_factorization, is_prime

__all__ = [
    "sum_of_squares_census",
    "rho_brute",
    "rho_odd_prime",
    "rho_base_vector",
    "rho",
    "even_k_sign",
    "closed_form_rho2",
    "closed_form_rho4",
    "trig_closed_form_rho8",
]

# Largest count, in bits, that a closed form may build. -k reaches 2^63 - 1
# on the CLI and a count near n^k has about k log2 n bits; at this cap it
# still renders as decimal in about two seconds.
MAX_OUTPUT_BITS = 1 << 20


def _check_output_bits(k: int, factors, what: str) -> None:
    """Refuse a count of about n^k, n = prod p^e, before building it."""
    bits = k * sum(e * p.bit_length() for p, e in factors)
    if bits > MAX_OUTPUT_BITS:
        raise BudgetExceededError(bits, MAX_OUTPUT_BITS, f"output bit length of {what} at k = {k}")


def sum_of_squares_census(k: int, n: int) -> tuple[int, ...]:
    """Count square sums over all n^k tuples by the product rule.

    Returns a tuple of ints c with c[r] = number of k-tuples whose square
    sum is congruent to r mod n. The k-coordinate census is the k-fold
    cyclic convolution of the one-coordinate square census, built by
    repeated squaring, each convolution one product of Python ints (Kronecker
    substitution): O(log k) products of about k n log2(n) bits. Tier-1 tests
    check it against literal enumeration. It is refused, before allocating,
    if predicted over the budget.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    return _power_census(k, n)


def _power_census(k: int, n: int) -> tuple[int, ...]:
    """The square census mod n raised to the k-th power (arguments not re-checked).

    Kronecker substitution: the vector is packed into one Python int with
    one slot per residue, so a cyclic convolution is one integer product
    (Karatsuba in CPython) folded at n slots. A slot is the smallest array
    item of 1, 2, 4 or 8 bytes that holds every entry, or ``m`` 64-bit
    words once an entry needs more than one.
    """
    # every entry, and every entry of a product before the fold, counts
    # tuples, so it is below n^k <= 2^bits: no slot carries into the next
    bits = k * (n - 1).bit_length()
    code = next((c for c in "BHIQ" if 8 * array(c).itemsize >= bits), "Q")
    item = array(code).itemsize
    m = max(1, -(-bits // (8 * item)))  # items per residue, over 1 only for "Q"
    size = m * item  # bytes per residue
    # A product per squaring and per further set bit of k: 5.5e-9 s x D^log2(3)
    # for D the 30-bit digits of a packed int (Karatsuba), D scaled by
    # bits(n - 1) / 9 below 512 residues, whose zero-padded slots split off
    # (fitted for n = 3 to 10007); 5e-9 s x D log2(D) at n = 2, where each count
    # is a power of two. A residue: 4.4e-7 s, 36 bytes and 9 slots (3 if no product).
    products = k.bit_length() + bin(k).count("1") - 2
    digits = 8 * size * n / 30
    if n == 2:
        product = 5e-9 * digits * log2(digits + 1)
    else:
        product = 5.5e-9 * (digits * min(1.0, (n - 1).bit_length() / 9)) ** log2(3)
    seconds = products * product + 4.4e-7 * n
    _check_budget(f"the census at modulus {n}, k = {k}", seconds, ((9 if products else 3) * size + 36) * n)
    squares = [0] * n
    for x in range(n):
        squares[x * x % n] += 1
    words = array(code, bytes(size * n))
    words[::m] = array(code, squares)
    if sys.byteorder == "big":
        words.byteswap()
    shift = 8 * size * n
    mask = (1 << shift) - 1

    def cyclic(product: int) -> int:
        return (product & mask) + (product >> shift)

    power = int.from_bytes(words.tobytes(), "little")
    counts = None
    while True:
        if k & 1:
            counts = power if counts is None else cyclic(counts * power)
        k >>= 1
        if not k:
            break
        power = cyclic(power * power)
    packed = counts.to_bytes(size * n, "little")
    if m > 1:
        return tuple(int.from_bytes(packed[i : i + size], "little") for i in range(0, size * n, size))
    words = array(code, packed)
    if sys.byteorder == "big":
        words.byteswap()
    return tuple(words)


def rho_brute(k: int, lam: int, n: int) -> int:
    """Exact count of tuples with square sum lam mod n, from the census.

    Works for every lam; refused where the census is.
    """
    return sum_of_squares_census(k, n)[lam % n]


def even_k_sign(k: int, p: int) -> int:
    """(-1)^(k(p-1)/4) for even k and odd p, as an exact +/-1."""
    if k % 2 or p % 2 == 0:
        raise ValueError("sign is defined for even k and odd p only")
    return -1 if ((k // 2) * ((p - 1) // 2)) % 2 else 1


def _prime_count(k: int, lam: int, p: int) -> int:
    """rho(k, lam, p) at an odd prime p (not re-checked), 0 <= lam < p."""
    # for odd k the quadratic-character term carries the sign of k - 1
    sign = even_k_sign(k - k % 2, p)
    if k % 2:
        # Euler criterion: lam^((p-1)/2) is 1, p - 1, or 0 at lam = 0
        character = pow(lam, p // 2, p)
        return p ** (k - 1) + sign * (character if character < 2 else -1) * p ** (k // 2)
    return p ** (k - 1) + sign * p ** (k // 2 - 1) * (p - 1 if lam == 0 else -1)


def rho_odd_prime(k: int, lam: int, p: int) -> int:
    """Count solutions of a square-sum congruence modulo an odd prime.

    Requires p odd prime and lam a unit mod p. Odd k splits on whether lam
    is a quadratic residue; even k does not depend on lam at all.
    """
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if p < 3 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    lam %= p
    if lam == 0:
        raise ValueError(f"lam must be a unit modulo {p}")
    return _prime_count(k, lam, p)


def _two_adic_counts(k: int) -> list[int]:
    """[rho(k, lam, 8) for lam mod 8], from the Gauss sums mod 8.

    8 rho = 8^k + 2 Re((4 + 4i)^k i^(-lam)) + 4^(k+1) c, where c is 1 when
    k = lam, -1 when k = lam + 4, and 0 otherwise (mod 8). Since
    (4 + 4i)^k = 2^(2k + k // 2) i^(k // 2) (1 + i)^(k % 2), each term is a
    signed power of two.
    """
    # Re(i^m (1 + i)^(k % 2)) by m mod 4
    real = (1, -1, -1, 1) if k % 2 else (1, 0, -1, 0)
    return [
        ((1 << 3 * k) + (real[(k // 2 - lam) % 4] << 2 * k + k // 2 + 1)
         + ((1, 0, 0, 0, -1, 0, 0, 0)[(k - lam) % 8] << 2 * k + 2)) >> 3
        for lam in range(8)
    ]


@lru_cache(maxsize=4096)
def rho_base_vector(k: int, n: int) -> tuple[int, ...]:
    """(rho(k, lam, n) for lam mod n) at the base moduli n = 2, 4, 8.

    The counts come from the Gauss sums mod 8 in exact integers, folded
    down to 4 and 2; k is bounded only by the output bit length. These are
    the moduli the local counts at p = 2 read; ``sum_of_squares_census``
    gives the counts at any modulus.
    """
    if n not in (2, 4, 8):
        raise ValueError(f"base vectors exist at moduli 2, 4, 8 only, got {n}")
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    _check_output_bits(k, ((n, 1),), "rho_base_vector")
    counts = _two_adic_counts(k)
    while len(counts) > n:
        # x^2 mod 2m depends on x mod m only: the classes lam and lam + m
        # merge, and each tuple mod m has 2^k lifts mod 2m
        m = len(counts) // 2
        counts = [(counts[lam] + counts[lam + m]) >> k for lam in range(m)]
    return tuple(counts)


def _local_count(k: int, lam: int, p: int, e: int) -> int:
    """rho(k, lam, p^e) for a prime p (not re-checked) and every lam."""
    count, scale = 0, 1
    while True:
        if p == 2 and e <= 3:
            return count + scale * rho_base_vector(k, 1 << e)[lam % (1 << e)]
        if e <= 1:
            return count + scale * (_prime_count(k, lam % p, p) if e else 1)
        # the nonsingular solutions at the base modulus, lifted to p^e
        if p == 2:
            nonsingular, base = rho_base_vector(k, 8)[lam % 8], 3
            if lam % 4 == 0:
                nonsingular -= 2**k * rho_base_vector(k, 2)[lam // 4 % 2]
        else:
            nonsingular, base = _prime_count(k, lam % p, p) - (lam % p == 0), 1
        count += scale * nonsingular * p ** ((e - base) * (k - 1))
        # the rest have every coordinate divisible by p: x = p y
        if lam % (p * p):
            return count
        lam //= p * p
        e -= 2
        scale *= p**k


def rho(k: int, lam: int, n: int) -> int:
    """Number of k-tuples mod n whose square sum is lam.

    The product of the local counts at the prime powers of n (Chinese
    remainder decomposition), for every lam.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    factors = as_factorization(n).factors
    _check_output_bits(k, factors, "rho")
    result = 1
    for p, e in factors:
        result *= _local_count(k, lam, p, e)
    return result


# ---------------------------------------------------------------------------
# Exact trigonometric closed forms at moduli 2, 4, 8.
#
# A value a + b*sqrt(2), a and b integers, is the pair (a, b). The tables hold
# 2 sin and 2 cos of the quarter-turn multiples, so their entries are integer
# pairs; each form is a sum of such pairs times half-integer powers of two,
# divided once by a power of two at the end.
# ---------------------------------------------------------------------------

# 2 sin(pi*m/4) and 2 cos(pi*m/4) indexed by m mod 8
_SIN2 = ((0, 0), (0, 1), (2, 0), (0, 1), (0, 0), (0, -1), (-2, 0), (0, -1))
_COS2 = ((2, 0), (0, 1), (0, 0), (0, -1), (-2, 0), (0, -1), (0, 0), (0, 1))


def _root2_power(j: int, value: tuple[int, int], sign: int = 1) -> tuple[int, int]:
    """sign 2^(j/2) (a + b sqrt(2)) for j >= 0 and value = (a, b), exactly."""
    a, b = value
    if j % 2:  # sqrt(2) (a + b sqrt(2)) = 2b + a sqrt(2)
        a, b = 2 * b, a
    return sign * a << j // 2, sign * b << j // 2


def _count(terms, shift: int) -> int:
    """The sum of the pairs ``terms`` over 2^shift, which must be a count."""
    a = sum(term[0] for term in terms)
    if sum(term[1] for term in terms):
        raise ArithmeticError("irrational part failed to cancel")
    count, rest = divmod(a, 1 << shift)
    if rest or count < 0:
        raise ArithmeticError("closed form is not a count")
    return count


def closed_form_rho2(k: int) -> int:
    """Closed form at modulus 2 (lam = 1): 2^(k-1)."""
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    return 2 ** (k - 1)


def closed_form_rho4(k: int, lam: int) -> int:
    """Closed form at modulus 4: 4^(k-1) +/- 2^(3k/2 - 1) sin(pi k / 4)."""
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    if lam % 4 not in (1, 3):
        raise ValueError("lam must be 1 or 3 at modulus 4")
    # twice the form: 2^(2k-1) +/- 2^((3k-2)/2) (2 sin(pi k / 4))
    wave = _root2_power(3 * k - 2, _SIN2[k % 8], 1 if lam % 4 == 1 else -1)
    return _count(((1 << 2 * k - 1, 0), wave), 1)


def trig_closed_form_rho8(k: int, lam: int) -> int:
    """Closed form at modulus 8, one case per odd residue class.

    Each case is 2^(2k-3) times an integer combination of 2^k,
    2^((k+2)/2) sin(pi k / 4), and doubled quarter-turn sines and cosines;
    the evaluation is exact and the sqrt(2) parts must cancel.
    """
    if k < 1:
        raise ValueError(f"tuple length must be >= 1, got {k}")
    lam %= 8
    if lam not in (1, 3, 5, 7):
        raise ValueError("lam must be odd at modulus 8")

    def term(sign: int, table, m: int, j: int = 0) -> tuple[int, int]:
        # sign 2^(j/2) table[m] times 4^k: the sum of the terms is then 8 times the count
        return _root2_power(4 * k + j, table[m % 8], sign)

    # 2^k is 2^(3k) over 4^k, and 2^((k+2)/2) sin(pi k / 4) is 2^(k/2) (2 sin(pi k / 4))
    if lam == 1:
        terms = (term(1, _SIN2, k, k), term(1, _SIN2, k + 1), term(-1, _COS2, 3 * k + 1))
    elif lam == 3:
        terms = (term(-1, _SIN2, k, k), term(-1, _COS2, k + 1), term(-1, _COS2, 3 * (k + 1)))
    elif lam == 5:
        terms = (term(1, _SIN2, k, k), term(-1, _SIN2, k + 1), term(1, _COS2, 3 * k + 1))
    else:
        terms = (term(-1, _SIN2, k, k), term(-1, _SIN2, 3 * k + 1), term(1, _COS2, k + 1))
    return _count(((1 << 3 * k, 0), *terms), 3)
