"""Integer polynomials in Python ints, the kernel of :mod:`supergeo.scalars`.

A polynomial in n variables is ``{key: nonzero int}``, and ``{}`` is zero;
:func:`pscale`, :func:`evaluate` and :func:`poly_root` also take an ``int``.
A key packs an exponent tuple into one int (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007): each variable after the first has a field of :data:`BITS` bits, the
last variable lowest, and the first variable takes every bit above them, so
its degree is unbounded (:func:`pack`, :func:`unpack`).  Integer order of
the keys is lex order of the tuples, the key of a product of monomials is
the sum of their keys, and in one variable the key is the degree.  A degree
after the first stays below :data:`BOUND`, 2^31, which keeps the top bit of
its field clear: the sum of two keys then carries into no other field.  A
product key with a bit of :func:`guard` set holds a degree that would carry
once added again; :mod:`supergeo.scalars` checks the products of each
operation and raises ``InvalidArgument`` for one.  Results may
share their inputs' dicts, and no caller mutates one.  Besides ring
arithmetic this holds the heuristic gcd that cancels a quotient
(:func:`cancel_common_factor`), the exact square root (:func:`poly_root`),
a printer that writes a polynomial byte for byte as sympy's
``sstr(expr, order="lex")`` does (:func:`render_poly`), the package's
printer of a number (:func:`render_number`), and the one decision of a
polynomial's sign on a closed rational box (:func:`box_sign`).  It imports nothing
from the package, and sympy only inside the exact gcd that the heuristic
one falls back to on some tables in several variables.
"""

import collections
import functools
import itertools
import math
import operator
import re
from fractions import Fraction

# the width of the field of each variable after the first in a key, and
# the bound of a degree there, which keeps the field's top bit clear
BITS = 32
BOUND = 1 << BITS - 1
_FIELD = (1 << BITS) - 1


def pack(exps):
    """The key of the exponent tuple ``exps``, each exponent after the
    first below :data:`BOUND`."""
    key = 0
    for e in exps:
        key = key << BITS | e
    return key


def unpack(key, n):
    """The exponent tuple of length n that the key packs."""
    return tuple(key >> s & m for s, m in fields(n))


@functools.cache
def fields(n):
    """``(shift, mask)`` of each of n variables: its degree in a key e is
    ``e >> shift & mask``; the first variable's mask is -1, all bits."""
    return tuple((BITS * (n - 1 - k), _FIELD if k else -1) for k in range(n))


@functools.cache
def guard(n):
    """The top bit of each field after the first: a key with one of them
    set holds a degree of 2^31 or more where it must stay below."""
    return sum(1 << BITS * k + BITS - 1 for k in range(n - 1))


def _fits(t, top, mask):
    """Whether every field of the key t lies between 0 and that of the key
    ``top``, both with clear guard bits ``mask``: a field out of range
    borrows, so that ``t`` or ``top - t`` is negative or has a guard bit set."""
    return t >= 0 and not t & mask and top - t >= 0 and not (top - t) & mask


def pmul(p, q):
    """p * q; the product of nonzero polynomials over Z is nonzero."""
    if len(q) == 1:
        p, q = q, p
    if not q:
        return {}
    if len(p) == 1:
        [(ea, ca)] = p.items()
        if not ea:
            return {e: c * ca for e, c in q.items()}
        return {ea + e: c * ca for e, c in q.items()}
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    return out if all(out.values()) else {e: c for e, c in out.items() if c}


def padd(p, q):
    """p + q, possibly empty; p and q are left untouched."""
    out = dict(p)
    for e, c in q.items():
        c += out.get(e, 0)
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def pneg(p):
    return {e: -c for e, c in p.items()}


def pdiff(p, field):
    """Partial derivative by the variable whose ``(shift, mask)`` in the
    keys is ``field`` (see :func:`fields`), possibly empty: each key loses
    the unit of that field."""
    s, m = field
    unit = 1 << s
    return {e - unit: c * d for e, c in p.items() if (d := e >> s & m)}


def pscale(p, d):
    """p * d, each an int or a polynomial."""
    if type(d) is not int:
        return pmul(p, d) if type(p) is not int else pscale(d, p)
    if type(p) is int:
        return p * d
    return p if d == 1 else {e: c * d for e, c in p.items()}


def evaluate(p, nums, den):
    """A polynomial (or an int) at the point ``nums / den``, ints over one
    common denominator, as the ints ``(p(nums / den) den^d, den^d)`` for d
    the total degree of p: each term c x^e contributes c nums^e den^(d - |e|)."""
    if type(p) is int:
        return p, 1
    spans = list(zip(nums, fields(len(nums))))
    values, degrees = [], []
    for e, c in p.items():
        k = 0
        for v, (s, m) in spans:
            d = e >> s & m
            if d:
                c *= v**d
                k += d
        values.append(c)
        degrees.append(k)
    top = max(degrees)
    total = sum(c if k == top else c * den ** (top - k) for c, k in zip(values, degrees))
    return total, den**top


# the most boxes :func:`box_sign` examines, and the most Bernstein
# coefficients the table of one box may hold; past either it is undecided
SIGN_BOXES = 64
SIGN_TABLE = 4096


def _bernstein(table, degrees, strides, box):
    """The Bernstein coefficients on ``box`` of the polynomial whose dense
    table is ``table`` (the coefficient of x^e at the index
    ``sum_k e_k strides_k``), each times a positive int, in the same layout.

    Along a variable of degree d on [a, b], a = alpha/gamma and b =
    beta/delta in lowest terms, x = (A + W t)/D with D = gamma delta, A =
    alpha delta and W = beta gamma - alpha delta > 0 runs over [a, b] as t
    runs over [0, 1], and ``D^d c(x) = sum_j c_j D^(d-j) (A + W t)^j``:
    scaled by the powers of D, shifted by A (a Taylor shift) and scaled by
    the powers of W, the coefficients c_j of one fibre of the table become
    the coefficients h_j in t.  On [0, 1] the Bernstein coefficients times
    C(d, i) are ``sum_(j <= i) C(d - j, i - j) h_j``, the coefficients of
    ``sum_j h_j s^j (1 + s)^(d-j)``: h reversed, shifted by 1 and reversed
    again.  In degree 1 these are the values at a and b, times gamma and
    delta.  Ints alone, O(d^2) operations per fibre."""
    table = list(table)
    size = len(table)
    for d, stride, (a, b) in zip(degrees, strides, box):
        if not d:
            continue
        alpha, gamma, beta, delta = a.numerator, a.denominator, b.numerator, b.denominator
        if d == 1:  # the values at a and b, times gamma and delta
            for outer in range(0, size, 2 * stride):
                for start in range(outer, outer + stride):
                    c0, c1 = table[start], table[start + stride]
                    table[start] = c0 * gamma + c1 * alpha
                    table[start + stride] = c0 * delta + c1 * beta
            continue
        D, A, W = gamma * delta, alpha * delta, beta * gamma - alpha * delta
        dpow, wpow = [1], [1]
        for _ in range(d):
            dpow.append(dpow[-1] * D)
            wpow.append(wpow[-1] * W)
        dpow.reverse()
        span = stride * (d + 1)
        for outer in range(0, size, span):
            for start in range(outer, outer + stride):
                c = table[start:start + span:stride]
                if not any(c):
                    continue
                if D != 1:
                    c = [cj * k for cj, k in zip(c, dpow)]
                if A:
                    for i in range(d):
                        for j in range(d - 1, i - 1, -1):
                            c[j] += A * c[j + 1]
                if W != 1:
                    c = [cj * k for cj, k in zip(c, wpow)]
                c.reverse()
                for i in range(d):
                    for j in range(d - 1, i - 1, -1):
                        c[j] += c[j + 1]
                c.reverse()
                table[start:start + span:stride] = c
    return table


def box_sign(p, box, strict=True):
    """Decide the sign of the polynomial p in n variables on the closed box
    ``box``, a rational interval (a, b) with a < b per variable, by its
    Bernstein coefficients (Garloff, "Convergent bounds for the range of
    multivariate polynomials", 1986).

    Strict, it proves that p has one strict sign on the box; else that p >=
    0 there.  Returns ``(sign, points)``: a proof is a sign, 1 or -1 (always
    1 when not strict), and no points; a failure is sign 0 and its witness:
    a point where p is 0 (strict) or negative (not strict); two points where
    p has opposite signs, so that it vanishes between them (strict); or no
    point, undecided.

    On each box the Bernstein coefficients bound p, and the corner
    coefficients are its values at the vertices.  So the vertices are
    tried first (in product order of the intervals, the first one fixing
    the sign a strict proof needs), then every coefficient: all of them of
    that sign or 0 prove the sign, strict too once the corners are
    nonzero, since at each point of the box the Bernstein polynomial of
    some corner is positive.  A box that neither proves nor refutes is cut
    in half at the midpoint of the variable of positive degree cut least
    often, and the halves are examined breadth first.  After :data:`SIGN_BOXES` boxes, or at once for a table
    of more than :data:`SIGN_TABLE` coefficients, the sign is undecided: so
    is a zero that no cut point hits, as the double root of (3x - 1)^2 on
    [0, 1], where a strict proof fails as it should."""
    n = len(box)
    terms = [(unpack(e, n), c) for e, c in p.items()]
    degrees = tuple(map(max, *(exps for exps, _ in terms))) if len(terms) > 1 else (
        terms[0][0] if terms else (0,) * n)
    strides, size, corners = _layout(degrees)
    if size > SIGN_TABLE:
        return 0, ()
    dense = [0] * size
    for exps, c in terms:
        dense[sum(map(operator.mul, exps, strides))] = c
    lead, first = 0, None
    queue = collections.deque([(tuple(box), (0,) * n)])
    for _ in range(SIGN_BOXES):
        sub, cuts = queue.popleft()
        table = _bernstein(dense, degrees, strides, sub) if size > 1 else dense
        for index, bits in corners:
            v = table[index]
            if strict and v and not lead:
                lead, first = (1 if v > 0 else -1), tuple(iv[bit] for iv, bit in zip(sub, bits))
            elif not v if strict else v < 0:
                return 0, (tuple(iv[bit] for iv, bit in zip(sub, bits)),)
            elif strict and (v > 0) != (lead > 0):
                return 0, (first, tuple(iv[bit] for iv, bit in zip(sub, bits)))
        if not (max(table) <= 0 if lead < 0 else min(table) >= 0):
            k = min((c, k) for k, (c, d) in enumerate(zip(cuts, degrees)) if d)[1]
            a, b = sub[k]
            mid = Fraction(a + b, 2)
            more = cuts[:k] + (cuts[k] + 1,) + cuts[k + 1:]
            queue.append((sub[:k] + ((a, mid),) + sub[k + 1:], more))
            queue.append((sub[:k] + ((mid, b),) + sub[k + 1:], more))
        if not queue:
            return lead or 1, ()
    return 0, ()


@functools.cache
def _layout(degrees):
    """``(strides, size, corners)`` of the dense table of a polynomial of
    the given degrees in each variable: the stride of each variable, the
    number of coefficients, and ``(index, bits)`` of each vertex in product
    order, bit 0 for the lower end of an interval and 1 for the upper."""
    strides, size = (), 1
    for d in reversed(degrees):
        strides = (size, *strides)
        size *= d + 1
    corners = tuple((sum(k * d for k, d, bit in zip(strides, degrees, bits) if bit), bits)
                    for bits in itertools.product((0, 1), repeat=len(degrees)))
    return strides, size, corners

# values of xi, each with its own substitution, that the heuristic gcd tries
# before sympy's gcd decides
_HEURISTIC_TRIES = 3


def _digits(v, xi):
    """The polynomial in X whose coefficients are the symmetric ``xi``-adic
    digits of the int ``v``, each in ``(-xi/2, xi/2]``: ``{exponent: digit}``."""
    out, k, half = {}, 0, xi // 2
    while v:
        v, d = divmod(v, xi)
        if d > half:
            d -= xi
            v += 1
        if d:
            out[k] = d
        k += 1
    return out


def _lift(p, shift, radix, spans):
    """``X^shift * p`` back in ``x``, in the keys whose fields are ``spans``:
    exponent k becomes its mixed-radix digits in ``radix``, the last
    variable taking the rest; in one variable the key is k itself."""
    out = {}
    for k, c in p.items():
        k += shift
        key = 0
        for r, (s, _) in zip(radix, spans):
            k, d = divmod(k, r)
            key |= d << s
        out[key | k] = c
    return out


def cancel_common_factor(terms, den, n):
    """Divide the numerators and the polynomial ``den`` in n variables by
    their common factor in ``Z[x]``: one heuristic gcd over the whole table
    in Python ints (GCDHEU: Char, Geddes and Gonnet, J. Symbolic Computation
    7, 1989).

    The F_i (``den`` and the numerators) first lose their joint integer
    content and joint monomial; then a single term c x^e among them ends
    the search, since its divisors are +-x^f times divisors of c.  The
    Kronecker substitution x_1 -> X, x_(k+1) -> X^(r_1 ... r_k), each radix
    r_k above every exponent of x_k, is a ring map, one to one on the F_i
    and their divisors (in one variable the image of a key is the key
    itself); F_i maps to X^(j_i) G_i with G_i(0) != 0.  A nonconstant
    common factor, no monomial, maps to X^t Q with Q nonconstant and
    dividing every G_i, so the roots of Q lie within 1 + |F_i|oo of 0 for
    each i.  At xi = 2 max_i |F_i|oo + 29, |Q(xi)| > xi/2 divides
    gamma = gcd_i G_i(xi): ``2 gamma <= xi`` proves that nothing cancels.
    Otherwise the primitive part H of gamma's symmetric xi-adic digits is
    the candidate for Q.  For t = 0, then t = min_i j_i, h = X^t H and the
    cofactors X^(j_i - t) G_i/H, read from the digits of G_i(xi)/H(xi), are
    lifted back to x; h is the gcd once h c_i = F_i for every i and the c_i
    pass the same certificate.  Else the next attempt takes a larger xi and
    larger radices, which drops a factor that only the images share (1 +
    X + X^2 in ``(1 + x + x^2)/(1 - y)`` with y -> X^3).  After
    ``_HEURISTIC_TRIES`` attempts sympy's gcd decides, as for
    ``(x^2 + x y)/(x y + y^2)``: its gcd x + y maps to X (1 + X^2), so t = 1,
    but min_i j_i = 2."""
    polys = [den, *terms.values()]
    content = 0
    for p in polys:
        content = math.gcd(content, *p.values())
        if content == 1:
            break
    keys = [e for p in polys for e in p]
    # each variable's degrees, key by key; in one variable the keys themselves
    degrees = [keys] if n == 1 else [[e >> s & m for e in keys] for s, m in fields(n)]
    lows = [min(d) for d in degrees]
    low = pack(lows)  # the joint monomial: no field of a key lies below its own
    if content != 1 or low:
        polys = [{e - low: c // content for e, c in p.items()} for p in polys]

    def table(polys):
        return dict(zip(terms, polys[1:])), polys[0]

    if any(len(p) == 1 for p in polys):
        return table(polys)  # a single term c x^e is one of them: nothing more cancels
    top = [max(d) - k for d, k in zip(degrees[:-1], lows)]
    xi = 2 * max(max(map(abs, p.values())) for p in polys) + 29
    spans = fields(n)
    for attempt in range(_HEURISTIC_TRIES):
        radix = [d + 1 + attempt for d in top]
        if n == 1:
            images = polys
        else:  # the images of all keys, variable by variable, then split by polynomial
            flat = [0] * len(keys)
            for r, d, k in zip(itertools.accumulate(radix, operator.mul, initial=1), degrees, lows):
                flat = [x + (e - k) * r for x, e in zip(flat, d)]
            flat = iter(flat)
            images = [{k: c for c, k in zip(p.values(), flat)} for p in polys]
        shifts = [min(image) for image in images]
        powers = {k: xi**k for k in {k - j for image, j in zip(images, shifts) for k in image}}
        values = [sum(c * powers[k - j] for k, c in image.items())
                  for image, j in zip(images, shifts)]
        gamma = math.gcd(*values)
        if 2 * gamma <= xi:
            return table(polys)
        h = _digits(gamma, xi)
        h_content = math.gcd(*h.values())
        h = {k: c // h_content for k, c in h.items()}
        quotients = [_digits(v // (gamma // h_content), xi) for v in values]
        for t in sorted({0, min(shifts)}):
            lifted = _lift(h, t, radix, spans)
            cofactors = []
            for q, j, p in zip(quotients, shifts, polys):
                c = _lift(q, j - t, radix, spans)
                if pmul(lifted, c) != p:
                    break
                cofactors.append(c)
            else:  # the cofactors' values have the gcd h_content
                if (2 * h_content <= xi
                        and xi > 2 * min(max(map(abs, c.values())) for c in cofactors) + 2):
                    return table(cofactors)
        xi = xi * 73794 // 27011
    return _cancel_by_sympy_gcd(*table(polys), n)


def _cancel_by_sympy_gcd(terms, den, n):
    """The exact route of :func:`cancel_common_factor`: sympy's dense gcd
    over ``ZZ``, one per numerator, stopped once the gcd is constant.
    Imports sympy, which no golden scenario and no benchmark job reaches."""
    from sympy.polys.densearith import dmp_exquo
    from sympy.polys.densebasic import dmp_from_dict, dmp_ground_p, dmp_to_dict
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_gcd

    u = n - 1

    def dense(p):
        return dmp_from_dict({unpack(e, n): c for e, c in p.items()}, u, ZZ)

    g = d = dense(den)
    for p in terms.values():
        g = dmp_gcd(g, dense(p), u, ZZ)
        if dmp_ground_p(g, None, u):
            return terms, den

    def quotient(f):  # as ints: ZZ's elements are not ints under gmpy or flint ground types
        return {pack(e): int(c) for e, c in dmp_to_dict(dmp_exquo(f, g, u, ZZ), u, ZZ).items()}
    return {m: quotient(dense(p)) for m, p in terms.items()}, quotient(d)


# the rank of a generator name without its trailing digits in sympy's
# generator sort (``sympy.polys.polyutils._sort_gens``): x, y, z first, then
# p..w, then a..o, then every other name
_GEN_RANKS = {**{c: 124 + k for k, c in enumerate("xyz")},
              **{c: 216 + k for k, c in enumerate("pqrstuvw")},
              **{c: 301 + k for k, c in enumerate("abcdefghijklmno")}}
_GEN_NAME = re.compile(r"^(.*?)(\d*)$", re.MULTILINE)


def _gen_key(name):
    """The sort key of sympy's ``_sort_gens`` for one generator name: its
    rank, then the name without its trailing digits, then those digits as
    an int, so that ``x2 < x10``."""
    stem, index = _GEN_NAME.match(name).groups()
    return _GEN_RANKS.get(stem, 1000), stem, int(index) if index else 0


@functools.cache
def sympy_gen_order(names):
    """Positions of the variable ``names`` in the order sympy's ``Expr`` routines
    sort generators by (``x, y, z`` first), which fixes the printed signs;
    the sort is stable, as sympy's is."""
    return tuple(sorted(range(len(names)), key=lambda i: _gen_key(names[i])))


def _lex(order):
    """The sort key of keys in lex order of the variables at the positions
    ``order``, their degrees read in that order; None, the key itself, when
    ``order`` is the variables' own."""
    if all(i == k for k, i in enumerate(order)):
        return None
    spans = [fields(len(order))[i] for i in order]
    return lambda e: [e >> s & m for s, m in spans]


def leading_coefficient(p, order):
    """Leading coefficient of a nonzero polynomial in lex order of the
    variables at the positions ``order``."""
    return p[max(p, key=_lex(order))]


@functools.cache
def name_order(names):
    """The positions of the variable ``names`` sorted by name as plain strings,
    the order in which sympy prints and sorts symbols."""
    return sorted(range(len(names)), key=names.__getitem__)


# 10^600: an int below it has at most 600 digits, fewer than the lowest limit
# (640) that the interpreter may set on the digits of str(int)
_CHUNK = 10 ** 600


def render_number(q):
    """``str(q)`` of an int or ``Fraction``, whatever the interpreter's limit
    on the digits of ``str(int)``: a longer int prints as ``divmod`` blocks
    of 600 digits."""
    n, d = q.numerator, q.denominator
    if d != 1:
        return f"{render_number(n)}/{render_number(d)}"
    if -_CHUNK < n < _CHUNK:
        return str(n)
    blocks, m = [], abs(n)
    while m >= _CHUNK:
        m, r = divmod(m, _CHUNK)
        blocks.append(f"{r:0600}")
    return "-" * (n < 0) + str(m) + "".join(reversed(blocks))


def render_poly(names, terms):
    """The polynomial with the terms ``{key: rational}`` in the variables
    ``names`` as ``sstr`` prints it: terms in descending lex order of the
    variables sorted by name, factors in name order, the absolute numerator
    first unless it is 1 in a non-constant term, ``/q`` last, and signs
    between the terms."""
    order = name_order(names)
    spans = fields(len(names))
    out = ""
    for e in sorted(terms, key=_lex(order), reverse=True):
        q = terms[e]
        n, d = q.numerator, q.denominator
        factors = []
        for i in order:
            s, m = spans[i]
            k = e >> s & m
            if k:
                factors.append(names[i] if k == 1 else f"{names[i]}^{k}")
        if abs(n) != 1 or not factors:
            factors.insert(0, render_number(abs(n)))
        term = "*".join(factors) + (f"/{render_number(d)}" if d != 1 else "")
        if out:
            out += (" - " if n < 0 else " + ") + term
        else:
            out = "-" + term if n < 0 else term
    return out


def poly_root(p, order):
    """The square root of a nonzero int or integer polynomial, with a positive
    leading coefficient in lex order of the variables at the positions
    ``order``, or None when ``p`` is not a square.

    A square's root has integer coefficients (Gauss's lemma), and in lex
    order of the exponents, which is the order of the keys, its leading
    term is the root of ``p``'s: every degree of the leading key is even,
    so halving the key halves each field.  Each further term is the leading
    term of ``p - root^2`` over twice that leading term.  A term that is not
    an integer monomial proves that ``p`` is no square.  The keys of ``p -
    root^2`` fall strictly in lex order, a well-order, so the loop ends; the
    bound of half of ``p``'s degree in each variable only rejects a
    non-square early, at the first term above it (:func:`_fits`)."""
    if type(p) is int:
        r = math.isqrt(max(p, 0))
        return r if r * r == p else None
    n = len(order)
    spans = fields(n)
    lead = max(p)
    r = math.isqrt(max(p[lead], 0))
    if r * r != p[lead] or lead & sum(1 << s for s, _ in spans):  # an odd degree
        return None
    half = pack([max(e >> s & m for e in p) // 2 for s, m in spans])
    head = lead >> 1
    root = {head: r}
    rest = {e: c for e, c in p.items() if e != lead}
    while rest:
        e = max(rest)
        t = e - head
        if rest[e] % (2 * r) or not _fits(t, half, guard(n)):
            return None
        q = rest[e] // (2 * r)
        # p - (root + q x^t)^2 = rest - 2 q x^t root - q^2 x^(2t)
        for key, c in [*((er + t, 2 * q * cr) for er, cr in root.items()), (t + t, q * q)]:
            c = rest.get(key, 0) - c
            if c:
                rest[key] = c
            else:
                del rest[key]
        root[t] = q
    return pneg(root) if leading_coefficient(root, order) < 0 else root
