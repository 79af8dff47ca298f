"""The ring of quasisymmetric functions over the integers, monomial basis.

Elements are sparse integer linear combinations of basis elements indexed by
compositions.  The product is the quasi-shuffle (overlapping shuffle) of the
indexing compositions; the coproduct is deconcatenation; the antipode is a
signed sum over coarsenings of the reversed composition.  Everything is exact:
coefficients are Python ints, so they never overflow.

Operations key results by plain int tuples, which the collector can untrack;
:meth:`_Sparse.terms` wraps keys as :class:`Composition` as it yields them.
Constructed and parsed elements keep :class:`Composition` keys, equal to their tuples.

Each tensor-slot operation has one body: :func:`coproduct_at`, :func:`counit_at`
and :func:`tensor`.  The tensor product runs a row-by-row kernel loop for the
2-fold products the checks make, and computes a 3-fold product slot by slot,
by its definition.  The names per slot and arity (``coproduct_first``,
``triple_tensor``, ...) stay bound to them: they are public, and the Hopf checks
call them by name, so tracing that patches those names sees the calls.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import partial, update_wrapper
from typing import Callable, Iterable, Iterator, Mapping

from .compositions import Composition, _check_count, _coarsenings, _composition, _is_int, _splits

CompositionLike = Composition | Iterable[int]

_EMPTY = ()


_MemoInfo = namedtuple("MemoInfo", "hits misses maxsize currsize evictions terms")


class _Memo:
    """A kernel memo bounded by the terms it stores, not by its entry count.

    Wraps a function of hashable arguments that returns a tuple of terms.  A
    result longer than ``entry_cap`` terms is never kept across calls; past
    ``budget`` stored terms, the oldest entries go first.  Eviction is first
    in, first out, so a hit costs one dict lookup and no reordering.  An
    empty result is charged as one term, so the budget bounds entries too.

    ``cache_info()`` reports like ``functools.lru_cache`` does, with
    ``maxsize`` the term budget and ``currsize`` the stored entries, plus
    the evictions and the stored terms.  A miss is one computed result; a
    hit is a result found in the memo.
    """

    budget = 1 << 18
    entry_cap = 512

    def __init__(self, fn: Callable[..., tuple]):
        update_wrapper(self, fn)
        self._fn = fn
        self.cache_clear()

    def cache_clear(self) -> None:
        # An OrderedDict pops its oldest entry in O(1); a dict rescans the
        # slots its earlier deletions left at the front.
        self._entries: OrderedDict = OrderedDict()
        self.hits = self.misses = self.evictions = self.terms = 0

    def cache_info(self) -> _MemoInfo:
        return _MemoInfo(
            self.hits, self.misses, self.budget, len(self._entries), self.evictions, self.terms
        )

    def __call__(self, *key):
        try:
            value = self._entries[key]
        except KeyError:
            return self._miss(key)
        self.hits += 1
        return value

    def _miss(self, key: tuple):
        self.misses += 1
        value = self._fn(*key)
        size = len(value) or 1
        if size > self.entry_cap:
            return value
        entries = self._entries
        entries[key] = value
        self.terms += size
        while self.terms > self.budget:
            _, old = entries.popitem(last=False)
            self.terms -= len(old) or 1
            self.evictions += 1
        return value


@_Memo
def _quasi_shuffle(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Quasi-shuffle of two part tuples as ((parts, coefficient), ...).

    Hoffman's quasi-shuffle product (*Quasi-shuffle products*, J. Algebraic
    Combin. 11, 2000), built bottom-up over pairs of suffixes.  With
    ``a = left[i]``, ``b = right[j]`` and ``below`` the row of products of
    ``left[i + 1:]``, the product of ``left[i:]`` and ``right[j:]`` is

        row[j] = a.below[j] + b.row[j + 1] + (a + b).below[j + 1]

    where ``x.`` puts the part x in front of every term.  Two rows of dicts
    keyed by plain int tuples are alive at once; the result is the top
    dict's items, in no particular order, with the keys still plain tuples.
    Memoised whole by :class:`_Memo`; callers must not mutate the result.
    """
    n = len(right)
    below = [{right[j:]: 1} for j in range(n + 1)]  # the row of the empty left suffix
    for i in range(len(left) - 1, -1, -1):
        a = left[i]
        row = [None] * n + [{left[i:]: 1}]
        for j in range(n - 1, -1, -1):
            b = right[j]
            acc = {(a,) + k: c for k, c in below[j].items()}
            for k, c in row[j + 1].items():  # these meet the first branch when a == b
                k = (b,) + k
                acc[k] = acc.get(k, 0) + c
            ab = a + b  # larger than both heads, so its terms are new keys
            acc.update({(ab,) + k: c for k, c in below[j + 1].items()})
            row[j] = acc
        below = row
    return tuple(below[0].items())


class _Sparse:
    """A sparse integer combination of basis keys: the shared module structure.

    An element is a dict from keys to nonzero coefficients plus a shape
    (tensor arity, variable count, or None) that operands must share.  This
    base owns +, -, integer scaling, ==, hash, bool, len and the canonical
    order of :meth:`terms`, and :meth:`coefficient`.  Each subclass supplies
    ``_key``, the one check of a public key, which both the constructor and
    :meth:`coefficient` apply through :meth:`_checked`; its lift of scalars;
    its own product; and ``_order``: the canonical order of its keys, as a list.

    Internal results are built by :meth:`_new`, which drops zero
    coefficients, or by :meth:`_wrap`, which stores the dict it is given.
    ``_wrap`` is allowed only where no coefficient can cancel: no key
    receives two contributions and no input coefficient is zero.
    """

    __slots__ = ("_shape", "_terms")

    _SHAPE_NAME = "shape"
    # The key a lifted scalar sits on: an element with no other key equals,
    # and so must hash like, its coefficient there.
    _SCALAR_KEY = None

    @staticmethod
    def _coefficient(value):
        if not _is_int(value):
            raise ValueError(f"coefficients must be integers, got {value!r}")
        return value

    def _store(self, shape, terms: Mapping | None) -> None:
        """Validate public constructor input: every key and every coefficient."""
        self._shape = shape
        items = ((self._checked(k), self._coefficient(v)) for k, v in (terms or {}).items())
        self._terms = {k: v for k, v in items if v}

    def _checked(self, key):
        """``self._key(key)``, raising ``ValueError`` on a key of the wrong type as well."""
        try:
            return self._key(key)
        except TypeError as error:
            raise ValueError(f"key {key!r} is malformed: {error}") from None

    @classmethod
    def _new(cls, terms: Mapping, shape=None):
        """An element from keys already valid for ``cls``; zero coefficients are dropped."""
        return cls._wrap({k: v for k, v in terms.items() if v}, shape)

    @classmethod
    def _wrap(cls, terms: dict, shape=None):
        """An element that owns ``terms`` as given: valid keys, no zero coefficient."""
        out = object.__new__(cls)
        out._shape = shape
        out._terms = terms
        return out

    @classmethod
    def _lift(cls, other):
        """``other`` as an element of ``cls``, or None when it cannot be one."""
        return other if isinstance(other, cls) else None

    def _check_shape(self, other: "_Sparse") -> None:
        if self._shape != other._shape:
            raise ValueError(f"{self._SHAPE_NAME} mismatch: {self._shape} vs {other._shape}")

    _public = iter  # maps the ordered stored keys to the keys terms() yields

    def _items(self, public: Callable = iter) -> Iterator[tuple]:
        """The terms in canonical order, keys as stored unless ``public`` wraps them."""
        order = self._order(self._terms)
        return zip(public(order), map(self._terms.__getitem__, order))

    def terms(self) -> Iterator[tuple]:
        """Terms in the canonical order of the type, as ``(key, coefficient)``.

        The order is computed when ``terms()`` is called, and each call
        returns a fresh iterator over it.  Only here are keys wrapped in
        their public type; the printers read :meth:`_items` and pay no wrap.
        """
        return self._items(self._public)

    def coefficient(self, key) -> int:
        """The coefficient of ``key``, checked as the constructor checks it; 0 if absent."""
        return self._terms.get(self._checked(key), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:  # every _lift returns its own class as is
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return self._shape == other._shape and self._terms == other._terms

    def __hash__(self) -> int:
        if self._terms.keys() <= {self._SCALAR_KEY}:
            return hash(self._terms.get(self._SCALAR_KEY, 0))
        return hash((self._shape, frozenset(self._terms.items())))

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check_shape(other)
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            acc[key] = acc[key] + coeff if key in acc else coeff
        return self._new(acc, self._shape)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -v for k, v in self._terms.items()}, self._shape)

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other + -self

    def _scaled(self, n: int):
        return self._new({k: v * n for k, v in self._terms.items()}, self._shape)

    def __rmul__(self, other):
        # every ring here is commutative
        return self.__mul__(other)

    def __pow__(self, k: int):
        one = self._lift(1)  # None for types that lift no scalars
        if one is None:
            return NotImplemented
        result = one
        for _ in range(_check_count(k, "exponent")):
            result = result * self
        return result


class QSymElement(_Sparse):
    """A sparse integer combination of monomial basis elements.

    Immutable.  Supports +, -, * (by integers and by other elements), and **.
    Terms are stored without zero coefficients; iteration is canonical
    (weight first, then lexicographic on the composition).
    """

    __slots__ = ()

    _SCALAR_KEY = _EMPTY
    _public = partial(map, _composition)

    def _key(self, key) -> Composition:  # tuple() raises the TypeError that _checked labels
        return Composition(tuple(key))

    def __init__(self, terms: Mapping[Composition, int] | None = None):
        self._store(None, terms)

    @staticmethod
    def _order(comps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Weight first, then lexicographic: a stable sort by weight of the lex order."""
        return sorted(sorted(comps), key=sum)

    @classmethod
    def _lift(cls, other):
        if isinstance(other, int):
            return cls._new({_EMPTY: int(other)})
        return super()._lift(other)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QSymElement":
        return cls()

    @classmethod
    def one(cls) -> "QSymElement":
        return cls({_EMPTY: 1})

    @classmethod
    def monomial(cls, composition: CompositionLike) -> "QSymElement":
        """The basis element with coefficient 1 on ``composition``."""
        return cls({Composition(composition): 1})

    @classmethod
    def from_int(cls, n: int) -> "QSymElement":
        return cls({_EMPTY: n})

    # -- inspection --------------------------------------------------------

    def degree(self) -> int:
        """Largest weight appearing; 0 for the zero element."""
        return max(map(sum, self._terms), default=0)

    def __repr__(self) -> str:
        from .syntax import format_qsym

        return f"QSymElement({format_qsym(self)!r})"

    # -- ring structure ----------------------------------------------------

    def __mul__(self, other) -> "QSymElement":
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, QSymElement):
            return NotImplemented
        acc: dict[tuple[int, ...], int] = {}
        for ci, vi in self._terms.items():
            for cj, vj in other._terms.items():
                v = vi * vj
                for comp, mult in _quasi_shuffle(ci, cj):
                    acc[comp] = acc.get(comp, 0) + v * mult
        return self._new(acc)

    # -- coalgebra and Hopf structure --------------------------------------

    def coproduct(self) -> "TensorElement":
        """Deconcatenation: each basis term splits over all prefix/suffix cuts."""
        # A cut determines its composition, so no key is reached twice.
        return TensorElement._wrap(
            {cut: coeff for comp, coeff in self._terms.items() for cut in _splits(comp)}, 2
        )

    def counit(self) -> int:
        """The coefficient of the empty composition."""
        return self._terms.get(_EMPTY, 0)

    def antipode(self) -> "QSymElement":
        """Signed sum over coarsenings of the reversed composition, per term."""
        acc: dict[tuple[int, ...], int] = {}
        for comp, coeff in self._terms.items():
            sign = -1 if len(comp) % 2 else 1
            for coarser in _coarsenings(comp[::-1]):
                acc[coarser] = acc.get(coarser, 0) + sign * coeff
        return self._new(acc)

    def reverse_indices(self) -> "QSymElement":
        """The algebra involution sending each basis index to its reversal."""
        return self._wrap({c[::-1]: v for c, v in self._terms.items()})

    # -- truncation --------------------------------------------------------

    def truncate(self, n: int) -> "QSymElement":
        """Drop terms indexed by compositions longer than ``n``.

        Models restriction to quasisymmetric functions in ``n`` ordered
        variables, where longer monomials vanish identically.
        """
        _check_count(n, "variable count")
        return self._wrap({c: v for c, v in self._terms.items() if len(c) <= n})


monomial = QSymElement.monomial


def _check_arity(arity: int) -> None:
    if not _is_int(arity) or arity not in (2, 3):
        raise ValueError(f"tensor arity must be 2 or 3, got {arity!r}")


class TensorElement(_Sparse):
    """A sparse integer combination of tensors of monomial basis elements.

    Keys are tuples of compositions (int tuples once built by an operation)
    of a fixed arity (2 or 3).  The product is componentwise quasi-shuffle;
    adding or multiplying elements of different arity is an error.  A 3-fold
    product is computed slot by slot, as ``v1 v2 (M_a M_a') (x) (M_b M_b') (x)
    (M_c M_c')`` summed over the pairs of terms.
    """

    __slots__ = ()

    _SHAPE_NAME = "tensor arity"
    _public = partial(map, lambda key: tuple(map(_composition, key)))

    def __init__(self, arity: int, terms: Mapping[tuple, int] | None = None):
        _check_arity(arity)
        self._store(arity, terms)

    def _key(self, key) -> tuple[Composition, ...]:
        if len(key) != self._shape:
            raise ValueError(f"tensor key {key!r} does not have arity {self._shape}")
        return tuple(Composition(c) for c in key)

    @staticmethod
    def _order(keys: Iterable[tuple[tuple[int, ...], ...]]) -> list[tuple[tuple[int, ...], ...]]:
        """Factorwise weight-then-lex."""
        return sorted(keys, key=lambda key: [(sum(c), c) for c in key])

    @property
    def arity(self) -> int:
        return self._shape

    @classmethod
    def unit(cls, arity: int = 2) -> "TensorElement":
        _check_arity(arity)
        return cls._wrap({(_EMPTY,) * arity: 1}, arity)

    def __repr__(self) -> str:
        from .syntax import format_tensor

        return f"TensorElement({format_tensor(self)!r})"

    def __mul__(self, other) -> "TensorElement":
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check_shape(other)
        left, right = self._terms, other._terms
        acc: dict[tuple, int] = {}
        if self._shape == 3:
            # By the definition, slot by slot: no check multiplies 3-fold tensors.
            for k1, v1 in left.items():
                for k2, v2 in right.items():
                    v = v1 * v2
                    slots = [QSymElement._wrap({a: 1}) * QSymElement._wrap({b: 1}) for a, b in zip(k1, k2)]
                    for key, m in tensor(*slots)._terms.items():
                        acc[key] = acc.get(key, 0) + v * m
            return self._new(acc, 3)
        for (l1, r1), v1 in left.items():
            for (l2, r2), v2 in right.items():
                v = v1 * v2
                right_row = _quasi_shuffle(r1, r2)
                for cl, ml in _quasi_shuffle(l1, l2):
                    vl = v * ml
                    for cr, mr in right_row:
                        key = (cl, cr)
                        acc[key] = acc.get(key, 0) + vl * mr
        return self._new(acc, 2)


def tensor(*factors: QSymElement) -> TensorElement:
    """The tensor of two or three elements, linear in each factor."""
    _check_arity(len(factors))
    acc: dict[tuple[tuple[int, ...], ...], int] = {(): 1}
    for factor in factors:
        acc = {key + (c,): v * w for key, v in acc.items() for c, w in factor._terms.items()}
    return TensorElement._wrap(acc, len(factors))


def _check_slot(slot, arity: int) -> None:
    if not (_is_int(slot) and 0 <= slot < arity):
        raise ValueError(f"slot must be an integer from 0 to {arity - 1}, got {slot!r}")


def map_slot(
    element: TensorElement, slot: int, fn: Callable[[QSymElement], QSymElement]
) -> TensorElement:
    """Apply a linear map to one tensor slot, extended bilinearly.

    ``fn`` is evaluated on basis elements; it must be linear for the result
    to be meaningful.  If ``fn`` returns sums, the slot is re-expanded.
    """
    _check_slot(slot, element.arity)
    acc: dict[tuple[tuple[int, ...], ...], int] = {}
    for key, coeff in element._terms.items():
        image = fn(QSymElement._new({key[slot]: 1}))
        for comp, c in image._terms.items():
            new_key = key[:slot] + (comp,) + key[slot + 1 :]
            acc[new_key] = acc.get(new_key, 0) + coeff * c
    return element._new(acc, element.arity)


def _two_fold_terms(element: TensorElement, slot: int | None = None):
    """The (key, coefficient) items of a 2-fold tensor, after checking ``slot``."""
    if element.arity != 2:
        raise ValueError(f"tensor arity mismatch: {element.arity} vs 2")
    if slot is not None:
        _check_slot(slot, 2)
    return element._terms.items()


# In the two slot operations below, each key of the result arises from one
# term only, so the results are built without accumulating.


def coproduct_at(element: TensorElement, slot: int) -> TensorElement:
    """Apply the coproduct to one slot of a 2-fold tensor, giving a 3-fold one."""
    return TensorElement._wrap({
        key[:slot] + cut + key[slot + 1 :]: coeff
        for key, coeff in _two_fold_terms(element, slot)
        for cut in _splits(key[slot])
    }, 3)


def counit_at(element: TensorElement, slot: int) -> QSymElement:
    """Contract one slot of a 2-fold tensor with the counit."""
    return QSymElement._wrap(
        {key[1 - slot]: coeff for key, coeff in _two_fold_terms(element, slot) if not key[slot]}
    )


coproduct_first = partial(coproduct_at, slot=0)
coproduct_second = partial(coproduct_at, slot=1)
counit_first = partial(counit_at, slot=0)
counit_second = partial(counit_at, slot=1)
triple_tensor = tensor


def contract_product(element: TensorElement) -> QSymElement:
    """Multiply the two slots of a 2-fold tensor together."""
    acc: dict[tuple[int, ...], int] = {}
    for (left, right), coeff in _two_fold_terms(element):
        for comp, mult in _quasi_shuffle(left, right):
            acc[comp] = acc.get(comp, 0) + coeff * mult
    return QSymElement._new(acc)
