"""Small finite groups given by complete multiplication tables.

Elements of a group of order n are the integers 0..n-1, with a
distinguished identity index.  Groups compare equal structurally (same
order, identity and table).  A table must hold ints, and so must the
identity: 1.5, 1.0 or "1" is refused with NotAGroupError by the range
check that reads every entry, never truncated.  The table is stored as
given, its rows made tuples, so a table the package builds is not
converted entry by entry.  Outside input is checked once, at the
boundary: ``Group(...)`` checks a table's entries, identity, inverses
and associativity, and ``Subgroup(...)`` checks closure.  What the
package builds from checked objects is not checked again: the spec
builders, ``direct_product`` and ``Subgroup.as_group`` make their groups
through ``Group._built``, and the lattice's subgroups and the
centralizers of ``element_classes`` and ``centralizer_of_subgroup``
come through ``Subgroup._built``, which stores the members and bitset
it is given.

The subgroup lattice is the per-group record everything else reads:
subgroups, conjugacy classes, Moebius values and the table of marks.
Subgroups are found by cyclic extension over bitmasks: one
representative per conjugacy class is joined with cyclic subgroups of
prime-power order, and each new subgroup brings in its conjugation orbit
(Neubueser's method, as in Pfeiffer 1997).  A join <H, z> is built one
left coset of H at a time, and only for a z whose p-th power lies in H.
A cyclic subgroup inside a subgroup found in which H has prime index
is skipped, since it would give that subgroup again, and so is a
conjugate under H of one already joined, since it would give a
conjugate of that join.  The subgroups are sorted by (order, members),
and classes are numbered in the order their first member comes.
Containment is read from one index, built on first use: one bitset per
element of the subgroups that hold it.  The supergroups of K are the
AND of those bitsets over K's members.  The subgroups below each
subgroup, the table of marks (kept by its nonzero entries, with no
G-set built; a dense view is made only when asked for) and the Moebius
rows mu(K, -), each computed when a K is first asked for, all read K's
supergroups from there.  The lattice also keeps the integer
numerators of the primitive idempotents, which no ring enters, so every
ring after the first reads them without a Moebius row.
Lattices live in one bounded LRU keyed by structural equality, so
independently built copies of a group share one record; hits, inserts
and evictions all happen under the module lock.  Everything is
immutable after construction and all operations are pure, so objects
are safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass

from .errors import (
    BadLabelError,
    NotAGroupError,
    NotContainedError,
    OrderBoundError,
    ParseError,
    ResourceBoundError,
)

MAX_GROUP_ORDER = 255
DEFAULT_SUBGROUP_CAP = 20000

LATTICE_CACHE_SIZE = 64

_LOCK = threading.Lock()
_LATTICE_CACHE = OrderedDict()  # group -> SubgroupLattice, least recent first


class Group:
    """A finite group as an order x order multiplication table.

    The axioms (identity, two-sided inverses, associativity) are verified
    on construction.  Associativity is checked on a generating set, which
    is equivalent to the full check: if a(bc) = (ab)c holds for all
    generators a and arbitrary b, c, it propagates to all products.
    ``Group._built`` skips the range and associativity checks for a table
    the package made from checked groups or from permutations.
    """

    def __init__(self, mul, identity=0, label="?", factors=None, *,
                 _trusted=False):
        self.mul_table = tuple(map(tuple, mul))
        self.order = len(self.mul_table)
        self.identity = identity
        self.label = str(label)
        if self.order == 0:
            raise NotAGroupError("empty multiplication table")
        if self.order > MAX_GROUP_ORDER:
            raise OrderBoundError(
                f"group order {self.order} exceeds bound {MAX_GROUP_ORDER}")
        if not _trusted:
            self._validate_shape()
        self.inv_table = self._build_inverses()
        self.generators = self._find_generators()
        if not (_trusted or acts_compatibly(self.mul_table, self.generators,
                                            self.mul_table)):
            raise NotAGroupError("multiplication is not associative")
        # factors records how the group was assembled by direct_product;
        # an atomic group is its own single factor.
        self.factors = tuple(factors) if factors is not None else (self,)
        self._hash = hash((self.order, self.identity, self.mul_table))
        self._is_abelian = None

    @classmethod
    def _built(cls, mul, identity, label, factors=None):
        """A group whose table the package made: a direct product of checked
        groups, a subgroup's restriction, or a closure of permutations.

        Its inverses, greedy generators and hash are computed as for any
        group; the entry range and associativity are not checked again.
        """
        return cls(mul, identity, label, factors, _trusted=True)

    # -- construction-time checks -----------------------------------------

    def _validate_shape(self):
        n = self.order
        # entries are ints: 1.5, 1.0 and "1" are refused, not truncated
        if not (isinstance(self.identity, int) and 0 <= self.identity < n):
            raise NotAGroupError("identity index out of range")
        for row in self.mul_table:
            if len(row) != n:
                raise NotAGroupError("multiplication table is not square")
            for x in row:
                if not (isinstance(x, int) and 0 <= x < n):
                    raise NotAGroupError("table entry out of range")
        e = self.identity
        for a in range(n):
            if self.mul_table[e][a] != a or self.mul_table[a][e] != a:
                raise NotAGroupError("identity does not act trivially")

    def _build_inverses(self):
        n = self.order
        e = self.identity
        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.mul_table[a][b] == e and self.mul_table[b][a] == e:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise NotAGroupError(f"element {a} has no two-sided inverse")
        return tuple(inv)

    def _find_generators(self):
        """Greedy generators: the least element not yet reached, each time."""
        members, mask, gens = [self.identity], 1 << self.identity, ()
        while len(members) < self.order:
            cand = min(x for x in range(self.order) if not mask >> x & 1)
            members, mask, gens = _join(self.mul_table, members, mask, gens, cand)
        return gens

    # -- basic queries ------------------------------------------------------

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        return self.inv_table[a]

    def conj(self, g, x):
        """g * x * g**-1."""
        return self.mul_table[self.mul_table[g][x]][self.inv_table[g]]

    def elements(self):
        return range(self.order)

    def element_order(self, a):
        k = 1
        x = a
        while x != self.identity:
            x = self.mul_table[x][a]
            k += 1
        return k

    @property
    def is_abelian(self):
        if self._is_abelian is None:
            t = self.mul_table
            n = self.order
            self._is_abelian = all(
                t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))
        return self._is_abelian

    # -- product-factor bookkeeping ------------------------------------------

    @property
    def flat_factors(self):
        """Atomic factor list, flattening nested direct products."""
        if self.factors == (self,):
            return (self,)
        out = []
        for f in self.factors:
            out.extend(f.flat_factors)
        return tuple(out)

    def decode(self, x):
        """Row-major coordinates of x over flat_factors."""
        orders = [f.order for f in self.flat_factors]
        coords = []
        for n in reversed(orders):
            x, r = divmod(x, n)
            coords.append(r)
        return tuple(reversed(coords))

    def encode(self, coords):
        x = 0
        for f, c in zip(self.flat_factors, coords):
            x = x * f.order + c
        return x

    # -- structural identity ---------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return (self.order == other.order and self.identity == other.identity
                and self.mul_table == other.mul_table)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Group({self.label}, order={self.order})"


class Subgroup:
    """A subgroup of a parent group, stored as a sorted member tuple."""

    def __init__(self, parent: Group, members, *, _mask=None):
        self.parent = parent
        if _mask is None:
            self.members = tuple(sorted(set(members)))
            self._check()
            _mask = sum(1 << x for x in self.members)
        else:
            self.members = members
        self.mask = _mask
        self._as_group = None
        self._generators = None

    @classmethod
    def _built(cls, parent, members, mask):
        """A subgroup the package found closed in a checked parent: members
        is its sorted tuple and mask the bitset of the same members.  Both
        are stored as given, with no closure check."""
        return cls(parent, members, _mask=mask)

    def _check(self):
        g = self.parent
        if not self.members:
            raise NotAGroupError("subgroup cannot be empty")
        for x in self.members:
            # an element is an int: 1.5 is refused, not truncated to 1
            if not (isinstance(x, int) and 0 <= x < g.order):
                raise NotContainedError(f"element {x} outside parent group")
        mset = set(self.members)
        if g.identity not in mset:
            raise NotAGroupError("subgroup lacks the identity")
        for a in self.members:
            if g.inv_table[a] not in mset:
                raise NotAGroupError("subgroup not closed under inverse")
            for b in self.members:
                if g.mul_table[a][b] not in mset:
                    raise NotAGroupError("subgroup not closed under product")

    @property
    def order(self):
        return len(self.members)

    def leq(self, other: "Subgroup"):
        return (self.parent == other.parent
                and self.mask & other.mask == self.mask)

    def generators_local(self):
        """Small generating set, as indices into ``members``."""
        if self._generators is None:
            self._generators = self.as_group().generators
        return self._generators

    def generators_parent(self):
        return tuple(self.members[i] for i in self.generators_local())

    def as_group(self):
        """The subgroup as a standalone Group; element i is members[i]."""
        if self._as_group is None:
            pos = {x: i for i, x in enumerate(self.members)}
            table = [[pos[self.parent.mul_table[a][b]] for b in self.members]
                     for a in self.members]
            self._as_group = Group._built(
                table,
                identity=pos[self.parent.identity],
                label=f"sub{self.order}<{self.parent.label}",
            )
        return self._as_group

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.members == other.members

    def __hash__(self):
        return hash((self.parent, self.members))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.label})"


def _join(mul, members, mask, gens, z):
    """Members, mask and generators of <H, z>, where H has the given three.

    <H, z> is a union of left cosets wH, which left multiplication by a
    generator permutes.  So the search runs over coset representatives,
    from members[0] (the coset H itself): each new s*w brings in its whole
    coset at once, and since cosets are disjoint no element is probed.
    """
    gens += (z,)
    h, members = members, list(members)
    reps = [members[0]]
    for w in reps:  # also visits the representatives it appends
        for s in gens:
            b = mul[s][w]
            if not mask >> b & 1:
                row = mul[b]
                coset = [row[x] for x in h]
                members += coset
                mask |= sum([1 << x for x in coset])
                reps.append(b)
    return members, mask, gens


def subgroup_closure(g: Group, gens) -> Subgroup:
    """Smallest subgroup of g containing the given elements."""
    members, mask, hgens = [g.identity], 1 << g.identity, ()
    for x in gens:
        if not (isinstance(x, int) and 0 <= x < g.order):
            raise NotContainedError(f"element {x} outside parent group")
        if not mask >> x & 1:
            members, mask, hgens = _join(g.mul_table, members, mask, hgens, x)
    return Subgroup(g, members)


def trivial_subgroup(g: Group) -> Subgroup:
    return Subgroup(g, [g.identity])


def full_subgroup(g: Group) -> Subgroup:
    return Subgroup(g, range(g.order))


# ---------------------------------------------------------------------------
# Subgroup lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups: canonical label and members."""

    label: str
    rep_index: int
    member_indices: tuple


class SubgroupLattice:
    """All subgroups of a group, conjugacy classes and Moebius values.

    Subgroups are sorted by (order, member tuple) and classes are
    numbered as their first member is met, so each class representative
    is its least member and the listing is byte-identical across runs.
    ``_holds`` is the containment index: the bitset, per element, of the
    subgroups that hold it.  ``_above``, ``below``, ``marks_rows`` (the
    table of marks by its nonzeros) and the Moebius rows all read
    containment from it.
    """

    def __init__(self, group, subgroups, classes, class_of):
        self.group = group
        self.subgroups = subgroups
        self.classes = classes
        self.class_of = class_of
        self._index_of = {s.members: i for i, s in enumerate(subgroups)}
        self._label_to_class = {c.label: i for i, c in enumerate(classes)}
        self._moebius_rows = {}  # subgroup index k -> {h: mu(K, H)}

    @property
    def class_count(self):
        return len(self.classes)

    def labels(self):
        return [c.label for c in self.classes]

    def class_rep(self, ci) -> Subgroup:
        return self.subgroups[self.classes[ci].rep_index]

    def class_index_of_label(self, label):
        try:
            return self._label_to_class[label]
        except KeyError:
            raise BadLabelError(
                f"unknown subgroup class label {label!r} for {self.group.label}")

    def subgroup_index(self, members) -> int:
        key = tuple(sorted(members))
        try:
            return self._index_of[key]
        except KeyError:
            raise NotContainedError("not a subgroup of this lattice")

    def class_index_of_subgroup(self, sub: Subgroup) -> int:
        if sub.parent != self.group:
            raise NotContainedError("subgroup of a different group")
        return self.class_of[self.subgroup_index(sub.members)]

    def class_label_of_subgroup(self, sub: Subgroup) -> str:
        return self.classes[self.class_index_of_subgroup(sub)].label

    def leq(self, i, j):
        return self.subgroups[i].mask & self.subgroups[j].mask == self.subgroups[i].mask

    def moebius_by_index(self, ki, hi):
        row = self._moebius_rows.get(ki)
        if row is None:
            row = self._moebius_rows.setdefault(ki, self._moebius_row(ki))
        if hi not in row:
            raise NotContainedError("moebius(K,H) requires K <= H")
        return row[hi]

    def _moebius_row(self, k):
        """Moebius values mu(K, H) for every H >= K, K the subgroup at k.

        mu(K, K) = 1 and mu(K, H) = -sum of mu(K, L) over K <= L < H.  The
        H run over ``_above(k)``, which is increasing, and the subgroups
        are sorted by order, so each L comes before H.  The L are read from
        the shorter of two lists: ``below[h]`` without H, whose members
        above K are the ones in the row so far, or the earlier supergroups
        of K, tested for lying in H.  Near the bottom of the lattice the
        first is shorter, near the top the second.
        """
        subgroups, below = self.subgroups, self.below
        sups = self._above(k)
        row = {k: 1}
        for j in range(1, len(sups)):
            h = sups[j]
            if len(below[h]) <= j:
                row[h] = -sum(row.get(l, 0) for l in below[h][:-1])
            else:
                mh = subgroups[h].mask
                row[h] = -sum(row[l] for l in sups[:j]
                              if subgroups[l].mask & mh == subgroups[l].mask)
        return row

    @functools.cached_property
    def _holds(self):
        """_holds[x]: the bitset of the indices of the subgroups holding x."""
        holds = [0] * self.group.order
        for k, s in enumerate(self.subgroups):
            for x in s.members:
                holds[x] |= 1 << k
        return tuple(holds)

    def _above(self, k):
        """The indices h of the subgroups H >= K, K the subgroup at k, in
        increasing h.

        They are the AND of ``_holds`` over K's members, read off as a bit
        string from k on (no supergroup sorts before K).
        """
        holds = self._holds
        sup = functools.reduce(int.__and__, map(holds.__getitem__,
                                                 self.subgroups[k].members))
        bits, above, h = bin(sup)[:1:-1], [], k - 1
        while (h := bits.find("1", h + 1)) >= 0:
            above.append(h)
        return above

    @functools.cached_property
    def below(self):
        """below[h]: the indices k of the subgroups K <= H, in increasing k.

        It is ``_above`` transposed.
        """
        below = [[] for _ in self.subgroups]
        for k in range(len(below)):
            for h in self._above(k):
                below[h].append(k)
        return tuple(map(tuple, below))

    @functools.cached_property
    def marks_rows(self):
        """The table of marks by its nonzeros, its primary form.

        Row i lists the (j, |(G/H_i)^K_j|) with a nonzero mark, in
        increasing j, for class reps H_i and K_j.  |(G/H)^K| =
        |N_G(H):H| * #{H' in cl(H) : K <= H'}, since |N_G(H):H| =
        |G| / (|H| |cl(H)|).  Classes are sorted by order, so the table is
        lower triangular and each row ends on its diagonal entry
        |N_G(H_i):H_i|.  The supergroups H' of each column rep K_j,
        ``_above`` its index, are counted by class, and each class i met
        gets the pair (j, |N_G(H_i):H_i| * count); no zero is stored.
        """
        class_of = self.class_of
        scale = [self.group.order // (self.class_rep(i).order
                                      * len(c.member_indices))
                 for i, c in enumerate(self.classes)]
        rows = [[] for _ in self.classes]
        for j, c in enumerate(self.classes):
            for i, k in Counter(map(class_of.__getitem__,
                                    self._above(c.rep_index))).items():
                rows[i].append((j, scale[i] * k))
        return tuple(map(tuple, rows))

    @functools.cached_property
    def marks(self):
        """The table of marks as a dense n x n view of ``marks_rows``:
        entry [i][j] is |(G/H_i)^K_j|.  Only ``table_of_marks`` and the
        text form of ``tom`` read it; the ghost-ring kernel reads the
        sparse rows."""
        n = self.class_count
        out = []
        for row in self.marks_rows:
            dense = [0] * n
            for j, m in row:
                dense[j] = m
            out.append(tuple(dense))
        return tuple(out)

    @functools.cached_property
    def idempotent_numerators(self):
        """Gluck's integer numerators of the primitive idempotents.

        e_H = |N_G(H)|^-1 * sum over K <= H of |K| mu(K, H) [G/K]
        (Gluck 1981; Yoshida 1983), so the numerator at class c sums
        |K| mu(K, H) over the K in c below H.  Entry i, for H the rep of
        class i, is (the classes c with a nonzero numerator, increasing;
        their numerators; |N_G(H)| = |G| / |cl(H)|).  No ring enters, so
        every ring reads the same entry.
        """
        out = []
        for c in self.classes:
            h, num = c.rep_index, [0] * self.class_count
            for k in self.below[h]:
                num[self.class_of[k]] += (self.subgroups[k].order
                                          * self.moebius_by_index(k, h))
            cis = tuple(i for i, v in enumerate(num) if v)
            out.append((cis, tuple(num[i] for i in cis),
                        self.group.order // len(c.member_indices)))
        return tuple(out)


def acts_compatibly(mul, gens, action) -> bool:
    """Whether action[s*h] is action[s] after action[h] for each s in gens.

    ``mul`` is a group's multiplication table and ``action`` holds one
    point map per element.  For generators s and every h this is the
    full compatibility condition, since it propagates to all products.
    A table acting on itself (``action`` = ``mul``) is associativity.
    """
    for s in gens:
        row_s, mul_s = action[s], mul[s]
        for h, row_h in enumerate(action):
            row_sh = action[mul_s[h]]
            for p, q in enumerate(row_h):
                if row_sh[p] != row_s[q]:
                    return False
    return True


def is_homomorphism(src: Group, dst: Group, images) -> bool:
    """Whether b -> images[b] is a homomorphism from src to dst.

    images[s*b] = images[s]*images[b] for generators s and every b
    propagates to all products once the identity maps to the identity.
    That is checked on its own: a trivial src has no generators, and the
    generator check alone would pass any map.
    """
    if images[src.identity] != dst.identity:
        return False
    for s in src.generators:
        row, image_row = src.mul_table[s], dst.mul_table[images[s]]
        for b in src.elements():
            if images[row[b]] != image_row[images[b]]:
                return False
    return True


def balanced_product(ns: int, nt: int, glue, acts):
    """The balanced product S x_M T, and a group's action on it.

    Pair (s, t) is s*nt + t.  ``glue`` holds one (s -> s.m, t -> m.t)
    pair of maps per generator m of the middle group M, and pairs are
    identified by (s.m, t) ~ (s, m.t).  ``acts`` holds one (map on S,
    map on T) pair per element of the acting group; the maps must
    respect the gluing.  Returns ``reps``, the least pair of each class
    in increasing order, so class c is the one holding ``reps[c]``
    whatever order the gluing came in, and one row of classes per entry
    of ``acts``.
    """
    total = ns * nt
    parent = list(range(total))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for right_s, left_t in glue:
        for s in range(ns):
            base_sm, base_s = right_s[s] * nt, s * nt
            for t in range(nt):
                ri, rj = find(base_sm + t), find(base_s + left_t[t])
                parent[max(ri, rj)] = min(ri, rj)  # the least member stays root

    # a root is its class's least pair, so roots first appear in order
    number = {}
    cls = [number.setdefault(find(i), len(number)) for i in range(total)]
    reps = list(number)
    pairs = [divmod(r, nt) for r in reps]
    action = [[cls[on_s[s] * nt + on_t[t]] for s, t in pairs]
              for on_s, on_t in acts]
    return reps, action


def subgroup_lattice(g: Group) -> SubgroupLattice:
    """Enumerate all subgroups of g with their conjugacy classes.

    Enumeration is by cyclic extension (Neubueser; Pfeiffer 1997): starting
    from the trivial subgroup, one representative H of each class is
    joined with cyclic subgroups <z> of prime-power order (zuppos) that it
    does not contain.  A join not seen before brings in its whole
    conjugation orbit, which is its class.  Only a zuppo whose z^p lies in
    H is joined, p the prime of |z|.  That reaches every class, perfect
    subgroups included: a subgroup K is generated by its zuppos, and
    adding them to the trivial group from the smallest order up, each
    z^p is 1 or generates a smaller zuppo of K, which is already in.  The
    conjugates of a zuppo are zuppos, so the chain carries over to the
    class representative of each step.  Two more kinds of zuppo are
    skipped, since their joins could only give a class already found.
    Once some subgroup L found so far holds H with prime index, H is
    maximal in L, so <H, z> = L for every z in L but not in H.  For h in
    H, <H, z^h> = <H, z>^h, so once z is joined the other zuppos in its
    orbit under conjugation by H's generators give conjugates of that
    join; a generator that fixes every zuppo is left out of that action.
    The subgroups found, and so the sorted listing, are the same as with
    no skip; only the order in which the classes are met changes.
    ResourceBoundError is raised as soon as more than DEFAULT_SUBGROUP_CAP
    subgroups are found.  The result is kept in an LRU of the
    LATTICE_CACHE_SIZE most recent groups.
    """
    with _LOCK:
        # one lookup: an equal group compares its whole multiplication table
        lat = _LATTICE_CACHE.pop(g, None)
        if lat is not None:
            _LATTICE_CACHE[lat.group] = lat  # now the most recent
            return lat

    mul, e = g.mul_table, g.identity
    zuppos = {}  # mask of each zuppo -> its number, in first-seen order
    zid = {}  # element of prime-power order -> number of its zuppo
    zgens = []  # the least generator of each zuppo
    zpows = []  # z^p for each such generator z, p the prime of |z|
    for x in g.elements():
        members, mask, _ = _join(mul, [e], 1 << e, (), x)
        if len(members) > 1 and _is_prime_power(len(members)):
            zid[x] = i = zuppos.setdefault(mask, len(zuppos))
            if i == len(zgens):
                zgens.append(x)
                # _join lists <x> as e, x, x^2, ..., so x^p is at p mod |x|
                p = next(p for p in itertools.count(2) if len(members) % p == 0)
                zpows.append(members[p % len(members)])

    @functools.cache
    def zmap(s):  # zuppo numbers under conjugation by s; None if all fixed
        row_s, s_inv = mul[s], g.inv_table[s]
        m = tuple(zid[mul[row_s[z]][s_inv]] for z in zgens)
        return None if m == tuple(range(len(m))) else m

    # a central generator conjugates every subgroup to itself, which is
    # already in orbit_of, so only the others are kept; each is kept with
    # the bit of each image, so a conjugate's mask is one sum
    identity = tuple(g.elements())
    conj_by = [(perm, [1 << x for x in perm]) for s in g.generators
               if (perm := tuple(g.conj(s, x) for x in g.elements())) != identity]
    orbit_of = {1 << e: 0}  # subgroup mask -> number of its class
    # the subgroups found so far, numbered n as registered: found[n] is
    # (sorted members, mask), holds[x] the bitset of the n holding x and
    # of_order[o] that of the n of order o.  An index is a prime dividing |G|.
    found, holds, of_order = [((e,), 1 << e)], [0] * g.order, {1: 1}
    holds[e] = 1
    reps = [([e], 1 << e, ())]  # (members, mask, generators) per class
    primes = {p for p in range(2, g.order + 1) if g.order % p == 0 and _is_prime(p)}
    for members, mask, gens in reps:  # also visits the classes it appends
        # covered: H and the subgroups found in which H has prime index (a
        # supergroup holds H's generators); a zuppo lies in one of them when
        # its generator does.  tried: the numbers of the zuppos joined and of
        # their conjugates under H.  Only generators of H that move some
        # zuppo act, and none does when g is abelian.
        maps = conj_by and [m for m in map(zmap, gens) if m]
        covered, tried, order = mask, 0, len(members)
        sups = functools.reduce(int.__and__, map(holds.__getitem__, gens),
                                sum(of_order.get(order * p, 0) for p in primes))
        while sups:
            n = sups.bit_length() - 1
            covered |= found[n][1]
            sups ^= 1 << n
        for i, z in enumerate(zgens):
            if not mask >> zpows[i] & 1 or covered >> z & 1 or tried >> i & 1:
                continue
            k = _join(mul, members, mask, gens, z)
            if len(k[0]) // order in primes:
                covered |= k[1]
            if maps:  # <H, z^h> = <H, z>^h for h in H: the same class
                orbit, tried = [i], tried | 1 << i
                for j in orbit:
                    for m in maps:
                        if not tried >> m[j] & 1:
                            tried |= 1 << m[j]
                            orbit.append(m[j])
            if k[1] in orbit_of:
                continue
            orbit_of[k[1]] = len(reps)
            orbit = [k[:2]]
            for h, hmask in orbit:  # conjugation by the generators of g
                for perm, bits in conj_by:
                    cmask = sum(map(bits.__getitem__, h))
                    if cmask not in orbit_of:
                        orbit_of[cmask] = len(reps)
                        orbit.append((list(map(perm.__getitem__, h)), cmask))
                bit = 1 << len(found)
                found.append((tuple(sorted(h)), hmask))
                of_order[len(h)] = of_order.get(len(h), 0) | bit
                for x in h:
                    holds[x] |= bit
            reps.append(k)
            if len(orbit_of) > DEFAULT_SUBGROUP_CAP:
                raise ResourceBoundError(
                    f"more than {DEFAULT_SUBGROUP_CAP} subgroups in {g.label}")

    # each mask was built closed by _join or conjugated from one that was
    subs = sorted(found, key=lambda sm: (len(sm[0]), sm[0]))
    subgroups = tuple(Subgroup._built(g, s, m) for s, m in subs)

    # in (order, members) order a class's least member, its representative,
    # is met first, so numbering classes as met sorts them by that key too
    number, classes, class_of, rank = {}, [], [], {}
    for i, s in enumerate(subgroups):
        ci = number.setdefault(orbit_of[s.mask], len(number))
        if ci == len(classes):
            rank[s.order] = rank.get(s.order, 0) + 1
            classes.append((f"{s.order}#{rank[s.order]}", i, []))
        classes[ci][2].append(i)
        class_of.append(ci)

    lat = SubgroupLattice(g, subgroups, tuple(
        SubgroupClass(label, rep, tuple(idxs)) for label, rep, idxs in classes),
        tuple(class_of))
    with _LOCK:
        lat = _LATTICE_CACHE.setdefault(g, lat)
        _LATTICE_CACHE.move_to_end(g)
        while len(_LATTICE_CACHE) > LATTICE_CACHE_SIZE:
            _LATTICE_CACHE.popitem(last=False)
    return lat


def _is_prime(k: int) -> bool:
    """Whether k is a prime."""
    return k > 1 and all(k % p for p in range(2, math.isqrt(k) + 1))


def _is_prime_power(k: int) -> bool:
    """Whether k > 1 is a power of a prime."""
    p = next(p for p in range(2, k + 1) if k % p == 0)
    while k % p == 0:
        k //= p
    return k == 1


def moebius(lat: SubgroupLattice, k: Subgroup, h: Subgroup) -> int:
    """Moebius function of the subgroup poset at K <= H."""
    if k.parent != lat.group or h.parent != lat.group:
        raise NotContainedError("subgroup of a different group")
    return lat.moebius_by_index(lat.subgroup_index(k.members),
                                lat.subgroup_index(h.members))


# ---------------------------------------------------------------------------
# Normalizers, centralizers, conjugacy of elements and subgroups
# ---------------------------------------------------------------------------

def normalizer(g: Group, h: Subgroup) -> Subgroup:
    if h.parent != g:
        raise NotContainedError("subgroup of a different group")
    mset = set(h.members)
    members = [x for x in g.elements()
               if all(g.conj(x, m) in mset for m in h.members)]
    return Subgroup(g, members)


def centralizer_of_subgroup(g: Group, h: Subgroup) -> Subgroup:
    if h.parent != g:
        raise NotContainedError("subgroup of a different group")
    members = tuple(x for x in g.elements()
                    if all(g.mul_table[x][m] == g.mul_table[m][x] for m in h.members))
    return Subgroup._built(g, members, sum(1 << x for x in members))


def centralizer_of_element(g: Group, x: int) -> Subgroup:
    if not (isinstance(x, int) and 0 <= x < g.order):
        raise NotContainedError(f"element {x!r} outside group")
    members = [y for y in g.elements()
               if g.mul_table[x][y] == g.mul_table[y][x]]
    return Subgroup(g, members)


def element_classes(g: Group):
    """Conjugacy classes of elements: (representative, class, centralizer).

    One pass over the conjugates y*x*y^-1 of each new x gives its class,
    and the y with y*x*y^-1 = x are its centralizer.  Equal centralizers
    share one Subgroup, so an abelian group builds one.
    """
    centralizer = functools.cache(lambda members: Subgroup._built(
        g, members, sum(1 << y for y in members)))
    seen, out = set(), []
    for x in g.elements():
        if x in seen:
            continue
        conj = [g.conj(y, x) for y in g.elements()]
        seen.update(conj)
        cz = tuple(y for y, c in enumerate(conj) if c == x)
        out.append((x, tuple(sorted(set(conj))), centralizer(cz)))
    return out


def subgroups_conjugate(g: Group, a: Subgroup, b: Subgroup) -> bool:
    """Whether two subgroups of g are conjugate (brute force with pruning)."""
    if a.parent != g or b.parent != g:
        raise NotContainedError("subgroups of a different group")
    if a.order != b.order:
        return False
    if a.members == b.members:
        return True
    fa = sorted(g.element_order(x) for x in a.members)
    fb = sorted(g.element_order(x) for x in b.members)
    if fa != fb:
        return False
    target = b.mask
    for x in g.elements():
        mask = 0
        for m in a.members:
            mask |= 1 << g.conj(x, m)
        if mask == target:
            return True
    return False


# ---------------------------------------------------------------------------
# Direct products and diagonals
# ---------------------------------------------------------------------------

def direct_product(g: Group, h: Group) -> Group:
    """Componentwise product; (a, b) is element a*|h| + b (row-major)."""
    n = g.order * h.order
    if n > MAX_GROUP_ORDER:
        raise OrderBoundError(
            f"direct product order {n} exceeds bound {MAX_GROUP_ORDER}")
    nh = h.order
    table = [[0] * n for _ in range(n)]
    for a1 in g.elements():
        for b1 in h.elements():
            i = a1 * nh + b1
            row = table[i]
            grow = g.mul_table[a1]
            hrow = h.mul_table[b1]
            for a2 in g.elements():
                ga = grow[a2]
                base = ga * nh
                for b2 in h.elements():
                    row[a2 * nh + b2] = base + hrow[b2]
    return Group._built(
        table,
        identity=g.identity * nh + h.identity,
        label=f"prod({g.label},{h.label})",
        factors=(g, h),
    )


def squared(g: Group) -> Group:
    """G x G; a base whose square exceeds the order bound is a resource cap.

    ``commutant`` is the one command that builds G x G, so the cap is its own.
    """
    if g.order * g.order > MAX_GROUP_ORDER:
        raise ResourceBoundError(
            f"G x G computations are capped at base order "
            f"{math.isqrt(MAX_GROUP_ORDER)}, since |G x G| <= {MAX_GROUP_ORDER}")
    return direct_product(g, g)


def cubed(g: Group) -> Group:
    return direct_product(squared(g), g)


def diagonal_subgroup(g: Group, product: Group | None = None) -> Subgroup:
    """The diagonal {(x, x)} inside g x g."""
    gg = product if product is not None else squared(g)
    if gg.order != g.order * g.order:
        raise NotContainedError("product group has the wrong order")
    n = g.order
    return Subgroup(gg, (x * n + x for x in g.elements()))


# ---------------------------------------------------------------------------
# Group-spec grammar
# ---------------------------------------------------------------------------

def _cyclic(n: int) -> Group:
    if n < 1:
        raise ParseError("cyclic order must be >= 1")
    return Group._built([[(a + b) % n for b in range(n)] for a in range(n)],
                        identity=0, label=f"C{n}")


def _dihedral(n: int) -> Group:
    """Dihedral group of order n (so D8 is the symmetry group of a square)."""
    if n < 4 or n % 2 != 0:
        raise ParseError("dihedral order must be even and >= 4")
    m = n // 2
    # element i + m*j is r^i s^j; s r s = r^-1
    def mul(a, b):
        i1, j1 = a % m, a // m
        i2, j2 = b % m, b // m
        i = (i1 + (i2 if j1 == 0 else -i2)) % m
        return i + m * ((j1 + j2) % 2)
    return Group._built([[mul(a, b) for b in range(n)] for a in range(n)],
                        identity=0, label=f"D{n}")


def _symmetric(n: int) -> Group:
    if not (1 <= n <= 5):
        raise ParseError("symmetric degree must be between 1 and 5")
    perms = sorted(itertools.permutations(range(n)))
    pos = {p: i for i, p in enumerate(perms)}
    # (p*q)(x) = p(q(x))
    table = [[pos[tuple(p[q[x]] for x in range(n))] for q in perms]
             for p in perms]
    return Group._built(table, identity=pos[tuple(range(n))], label=f"S{n}")


_Q8_SYMBOL_MUL = {
    # (symbol, symbol) -> (sign, symbol) for 1, i, j, k
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _quaternion() -> Group:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k (in that index order)."""
    def mul(a, b):
        sa, xa = (1 if a % 2 == 0 else -1), a // 2
        sb, xb = (1 if b % 2 == 0 else -1), b // 2
        s, x = _Q8_SYMBOL_MUL[(xa, xb)]
        s *= sa * sb
        return 2 * x + (0 if s == 1 else 1)
    return Group._built([[mul(a, b) for b in range(8)] for a in range(8)],
                        identity=0, label="Q8")


def _parse_cycles(text: str):
    """Parse one generator in cycle notation, e.g. ``(1 2 3)(4 5)``."""
    cycles = []
    i = 0
    text = text.strip()
    if not text:
        raise ParseError("empty permutation")
    while i < len(text):
        if text[i] != "(":
            raise ParseError(f"expected '(' in cycle notation: {text!r}")
        j = text.index(")", i) if ")" in text[i:] else -1
        if j < 0:
            raise ParseError(f"unbalanced parenthesis in {text!r}")
        body = text[i + 1:j].replace(",", " ").split()
        if not body:
            raise ParseError(f"empty cycle in {text!r}")
        pts = []
        for tok in body:
            if not (tok.isascii() and tok.isdigit()) or int(tok) < 1:
                raise ParseError(f"cycle points must be positive integers: {tok!r}")
            pts.append(int(tok))
        if len(set(pts)) != len(pts):
            raise ParseError(f"repeated point in cycle {text!r}")
        cycles.append(tuple(pts))
        i = j + 1
        while i < len(text) and text[i] in " \t":
            i += 1
    flat = [p for c in cycles for p in c]
    if len(set(flat)) != len(flat):
        raise ParseError(f"cycles are not disjoint in {text!r}")
    return cycles


def _perm_group(gen_texts):
    """Closure of permutation generators; elements sorted lexicographically."""
    gen_cycles = [_parse_cycles(t) for t in gen_texts]
    points = sorted({p for cycles in gen_cycles for c in cycles for p in c})
    if not points:
        raise ParseError("permutation spec mentions no points")
    pos = {p: i for i, p in enumerate(points)}
    k = len(points)

    gens = []
    for cycles in gen_cycles:
        perm = list(range(k))
        for c in cycles:
            for a, b in zip(c, c[1:] + c[:1]):
                perm[pos[a]] = pos[b]
        gens.append(tuple(perm))

    ident = tuple(range(k))
    members = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[x]] for x in range(k))
                if r not in members:
                    members.add(r)
                    if len(members) > MAX_GROUP_ORDER:
                        raise OrderBoundError(
                            f"permutation group exceeds order {MAX_GROUP_ORDER}")
                    nxt.append(r)
        frontier = nxt
    elems = sorted(members)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(p[q[x]] for x in range(k))] for q in elems]
             for p in elems]

    canon_gens = ";".join(_render_cycles(c) for c in gen_cycles)
    return Group._built(table, identity=index[ident], label=f"perm:{canon_gens}")


def _render_cycles(cycles):
    norm = []
    for c in cycles:
        i = c.index(min(c))
        norm.append(c[i:] + c[:i])
    norm.sort(key=lambda c: c[0])
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in norm)


def _split_product_args(body: str):
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise ParseError(f"prod(...) needs two comma-separated specs: {body!r}")


def build_group(spec: str, max_order: int | None = None) -> Group:
    """Build a group from the spec grammar.

    Grammar: ``C<n>`` | ``D<n>`` (order n, n even >= 4) | ``S<n>`` (degree
    n <= 5) | ``Q8`` | ``perm:<cycles>;<cycles>;...`` |
    ``prod(<spec>,<spec>)``.
    """
    try:
        g = _build_spec(spec.strip())
    except RecursionError:
        # each prod( level is one frame of _build_spec
        raise ParseError("group spec is nested too deeply") from None
    bound = MAX_GROUP_ORDER if max_order is None else min(max_order, MAX_GROUP_ORDER)
    if g.order > bound:
        raise OrderBoundError(
            f"group {g.label} has order {g.order} > bound {bound}")
    return g


def _build_spec(s: str) -> Group:
    if not s:
        raise ParseError("empty group spec")
    if s == "Q8":
        return _quaternion()
    if s.startswith("perm:"):
        parts = [p for p in s[len("perm:"):].split(";")]
        if not parts or not all(p.strip() for p in parts):
            raise ParseError(f"bad permutation spec {s!r}")
        return _perm_group(parts)
    if s.startswith("prod(") and s.endswith(")"):
        left, right = _split_product_args(s[len("prod("):-1])
        return direct_product(_build_spec(left.strip()), _build_spec(right.strip()))
    head, body = s[0], s[1:]
    if head in "CDS" and body.isascii() and body.isdigit():
        n = int(body)
        if head == "C":
            if n > MAX_GROUP_ORDER:
                raise OrderBoundError(f"C{n} exceeds order bound")
            return _cyclic(n)
        if head == "D":
            if n > MAX_GROUP_ORDER:
                raise OrderBoundError(f"D{n} exceeds order bound")
            return _dihedral(n)
        return _symmetric(n)
    raise ParseError(f"cannot parse group spec {s!r}")
