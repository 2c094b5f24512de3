"""Integer polynomials in Python ints, the kernel of :mod:`supergeo.scalars`.

A polynomial is ``{exponent tuple: nonzero int}``, all tuples of one length,
and ``{}`` is zero; :func:`pscale`, :func:`evaluate` and :func:`poly_root`
also take an ``int``.  Results may share their inputs' dicts, and no caller
mutates one.  Besides ring arithmetic this holds the heuristic gcd that
cancels a quotient (:func:`cancel_common_factor`), the exact square root
(:func:`poly_root`) and a printer that writes a polynomial byte for byte as
sympy's ``sstr(expr, order="lex")`` does (:func:`render_poly`).  It imports
nothing from the package, and sympy only inside the exact gcd that the
heuristic one falls back to on some tables in several variables.
"""

import functools
import itertools
import math
import operator
import re


@functools.cache
def exps_adder(n):
    """a + b for exponent tuples of length n, written out for n <= 2."""
    if n == 1:
        return lambda a, b: (a[0] + b[0],)
    if n == 2:
        return lambda a, b: (a[0] + b[0], a[1] + b[1])
    return lambda a, b: tuple(map(operator.add, a, b))


def pmul(p, q):
    """p * q; the product of nonzero polynomials over Z is nonzero."""
    if len(q) == 1:
        p, q = q, p
    if not q:
        return {}
    add = exps_adder(len(next(iter(q))))
    if len(p) == 1:
        [(ea, ca)] = p.items()
        if not any(ea):
            return {e: c * ca for e, c in q.items()}
        return {add(ea, e): c * ca for e, c in q.items()}
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = add(ea, eb)
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


def pdiff(p, k):
    """Partial derivative by the k-th variable, possibly empty."""
    return {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] for e, c in p.items() if e[k]}


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
    degrees = [sum(exps) for exps in p]
    top = max(degrees)
    total = 0
    for (exps, c), k in zip(p.items(), degrees):
        for v, e in zip(nums, exps):
            if e:
                c *= v**e
        total += c if k == top else c * den ** (top - k)
    return total, den**top


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


def _lift(p, shift, radix):
    """``X^shift * p`` back in ``x``: exponent k becomes its mixed-radix digits
    in ``radix``, the last variable taking the rest."""
    out = {}
    for k, c in p.items():
        k += shift
        e = []
        for r in radix:
            k, d = divmod(k, r)
            e.append(d)
        out[(*e, k)] = c
    return out


def cancel_common_factor(terms, den):
    """Divide the numerators and the polynomial ``den`` by their common
    factor in ``Z[x]``: one heuristic gcd over the whole table in Python ints
    (GCDHEU: Char, Geddes and Gonnet, J. Symbolic Computation 7, 1989).

    The F_i (``den`` and the numerators) first lose their joint integer
    content and joint monomial.  The Kronecker substitution x_1 -> X,
    x_(k+1) -> X^(r_1 ... r_k), each radix r_k above every exponent of x_k,
    is a ring map, one to one on the F_i and their divisors (the identity in
    one variable); F_i maps to X^(j_i) G_i with G_i(0) != 0.  A nonconstant
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
    low = tuple(map(min, zip(*(e for p in polys for e in p))))  # the joint monomial
    if content != 1 or any(low):
        polys = [{tuple(map(operator.sub, e, low)): c // content for e, c in p.items()}
                 for p in polys]

    def table(polys):
        return dict(zip(terms, polys[1:])), polys[0]

    if any(len(p) == 1 and not any(next(iter(p))) for p in polys):
        return table(polys)  # a nonzero constant is one of them: nothing more cancels
    top = [max(e[k] for p in polys for e in p) for k in range(len(low) - 1)]
    xi = 2 * max(max(map(abs, p.values())) for p in polys) + 29
    for attempt in range(_HEURISTIC_TRIES):
        radix = [d + 1 + attempt for d in top]
        strides = list(itertools.accumulate(radix, operator.mul, initial=1))
        images = [{sum(map(operator.mul, e, strides)): c for e, c in p.items()} for p in polys]
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
            lifted = _lift(h, t, radix)
            cofactors = []
            for q, j, p in zip(quotients, shifts, polys):
                c = _lift(q, j - t, radix)
                if pmul(lifted, c) != p:
                    break
                cofactors.append(c)
            else:  # the cofactors' values have the gcd h_content
                if (2 * h_content <= xi
                        and xi > 2 * min(max(map(abs, c.values())) for c in cofactors) + 2):
                    return table(cofactors)
        xi = xi * 73794 // 27011
    return _cancel_by_sympy_gcd(*table(polys))


def _cancel_by_sympy_gcd(terms, den):
    """The exact route of :func:`cancel_common_factor`: sympy's dense gcd
    over ``ZZ``, one per numerator, stopped once the gcd is constant.
    Imports sympy, which no golden scenario and no benchmark job reaches."""
    from sympy.polys.densearith import dmp_exquo
    from sympy.polys.densebasic import dmp_from_dict, dmp_ground_p, dmp_to_dict
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_gcd

    u = len(next(iter(den))) - 1
    g = d = dmp_from_dict(den, u, ZZ)
    for p in terms.values():
        g = dmp_gcd(g, dmp_from_dict(p, u, ZZ), u, ZZ)
        if dmp_ground_p(g, None, u):
            return terms, den

    def quotient(f):  # as ints: ZZ's elements are not ints under gmpy or flint ground types
        return {e: int(c) for e, c in dmp_to_dict(dmp_exquo(f, g, u, ZZ), u, ZZ).items()}
    return {m: quotient(dmp_from_dict(p, u, ZZ)) for m, p in terms.items()}, quotient(d)


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


def leading_coefficient(p, order):
    """Leading coefficient of a nonzero polynomial in lex order of the
    variables at the positions ``order``."""
    return max(p.items(), key=lambda t: [t[0][i] for i in order])[1]


@functools.cache
def name_order(names):
    """The positions of the variable ``names`` sorted by name as plain strings,
    the order in which sympy prints and sorts symbols."""
    return sorted(range(len(names)), key=names.__getitem__)


def render_poly(names, terms):
    """The polynomial with the terms ``{exponents: rational}`` as ``sstr``
    prints it: terms in descending lex order of the variables sorted by
    name, factors in name order, the absolute numerator first unless it is 1
    in a non-constant term, ``/q`` last, and signs between the terms."""
    order = name_order(names)
    out = ""
    for exps, q in sorted(terms.items(), key=lambda t: [t[0][i] for i in order],
                          reverse=True):
        n, d = q.numerator, q.denominator
        factors = [names[i] if exps[i] == 1 else f"{names[i]}^{exps[i]}"
                   for i in order if exps[i]]
        if abs(n) != 1 or not factors:
            factors.insert(0, str(abs(n)))
        term = "*".join(factors) + (f"/{d}" if d != 1 else "")
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
    order of the exponent tuples its leading term is the root of ``p``'s.
    Each further term is the leading term of ``p - root^2`` over twice that
    leading term, and it is lex smaller than the terms before it.  A term
    that is not an integer monomial of degree at most half of ``p``'s in
    each variable proves that ``p`` is no square; the degree bound ends the
    loop."""
    if type(p) is int:
        r = math.isqrt(max(p, 0))
        return r if r * r == p else None
    lead = max(p)
    r = math.isqrt(max(p[lead], 0))
    if r * r != p[lead] or any(e % 2 for e in lead):
        return None
    half = [max(e[k] for e in p) // 2 for k in range(len(lead))]
    head = tuple(e // 2 for e in lead)
    root = {head: r}
    rest = {e: c for e, c in p.items() if e != lead}
    add = exps_adder(len(lead))
    while rest:
        e = max(rest)
        t = tuple(map(operator.sub, e, head))
        if rest[e] % (2 * r) or any(d < 0 or d > h for d, h in zip(t, half)):
            return None
        q = rest[e] // (2 * r)
        # p - (root + q x^t)^2 = rest - 2 q x^t root - q^2 x^(2t)
        for key, c in [*((add(er, t), 2 * q * cr) for er, cr in root.items()),
                       (add(t, t), q * q)]:
            c = rest.get(key, 0) - c
            if c:
                rest[key] = c
            else:
                del rest[key]
        root[t] = q
    return pneg(root) if leading_coefficient(root, order) < 0 else root
