"""Feature domains, threshold-induced interval partitions, and feature states.

Numeric features are integer-granular and abstracted into a finite, ordered
partition of right-closed intervals, so that every comparison appearing in a
rule is constant on each interval.  This keeps the whole state space finite
and makes exhaustive cross-checks exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Literal, Mapping, Optional, Union

from .errors import EmptyRange, OutOfDomain, SemanticError

Kind = Literal["categorical", "numeric"]
Monotonicity = Literal["none", "nondecreasing", "nonincreasing"]


@dataclass(frozen=True)
class Interval:
    """Integer interval, closed on the right: ``[lower, upper]`` or ``(lower, upper]``."""

    lower: int
    upper: int
    lower_open: bool = False

    def __post_init__(self) -> None:
        if self.lower_open:
            if self.upper <= self.lower:
                raise ValueError(f"empty interval ({self.lower}, {self.upper}]")
        elif self.upper < self.lower:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def min_element(self) -> int:
        return self.lower + 1 if self.lower_open else self.lower

    @property
    def max_element(self) -> int:
        return self.upper

    def contains(self, x: int) -> bool:
        return self.min_element <= x <= self.upper

    @property
    def representative(self) -> int:
        """Canonical concrete value used when suggesting this interval."""
        return self.min_element

    def __str__(self) -> str:
        left = "(" if self.lower_open else "["
        return f"{left}{self.lower}, {self.upper}]"

    def describe(self) -> str:
        """Human phrasing, e.g. ``>7 and =<72`` for ``(7, 72]``."""
        if self.min_element == self.upper:
            return str(self.upper)
        if self.lower_open:
            return f">{self.lower} and =<{self.upper}"
        return f">={self.lower} and =<{self.upper}"


def partition_range(lo: int, hi: int, thresholds: Iterable[int]) -> tuple[Interval, ...]:
    """Split ``[lo, hi]`` at the given cut points into right-closed intervals.

    Sorted thresholds ``t1 < ... < tk`` inside ``[lo, hi)`` produce the
    partition ``[lo, t1], (t1, t2], ..., (tk, hi]``.  Thresholds outside
    ``[lo, hi)`` are dropped: a comparison against such a constant is already
    constant over the whole range, so no split is needed.
    """
    if hi < lo:
        raise EmptyRange(f"range [{lo}, {hi}] is empty")
    cuts = sorted({int(t) for t in thresholds if lo <= t < hi})
    if not cuts:
        return (Interval(lo, hi),)
    parts = [Interval(lo, cuts[0])]
    for a, b in zip(cuts, cuts[1:] + [hi]):
        parts.append(Interval(a, b, lower_open=True))
    return tuple(parts)


@dataclass(frozen=True)
class FeatureDomain:
    """One feature: its finite value set and how it is allowed to move.

    Categorical features carry an ordered tuple of labels; numeric features
    carry an ordered interval partition of their declared range.  A feature's
    plausibility constraint is stored here and nowhere else, as ``mutable``
    (``False``: the feature is frozen) or ``monotonicity`` (it moves one way
    only), given at construction or with :func:`dataclasses.replace`; a
    feature takes at most one of the two.
    """

    name: str
    kind: Kind
    labels: tuple[str, ...] = ()
    intervals: tuple[Interval, ...] = ()
    mutable: bool = True
    monotonicity: Monotonicity = "none"

    def __post_init__(self) -> None:
        if self.kind == "categorical":
            if not self.labels or self.intervals:
                raise ValueError(f"{self.name}: categorical features need labels only")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError(f"{self.name}: duplicate labels")
        elif self.kind == "numeric":
            if not self.intervals or self.labels:
                raise ValueError(f"{self.name}: numeric features need intervals only")
            if self.intervals[0].lower_open:
                raise ValueError(f"{self.name}: first interval must include its lower bound")
            for prev, nxt in zip(self.intervals, self.intervals[1:]):
                if not nxt.lower_open or nxt.lower != prev.upper:
                    raise ValueError(f"{self.name}: intervals must tile the range without gaps")
        else:
            raise ValueError(f"{self.name}: unknown kind {self.kind!r}")
        if self.monotonicity not in ("none", "nondecreasing", "nonincreasing"):
            raise ValueError(f"{self.name}: bad monotonicity {self.monotonicity!r}")
        if not self.mutable and self.monotonicity != "none":
            raise ValueError(f"{self.name}: an immutable feature has no monotonicity")

    @property
    def size(self) -> int:
        return len(self.labels) if self.kind == "categorical" else len(self.intervals)

    def value_text(self, index: int) -> str:
        if self.kind == "categorical":
            return self.labels[index]
        return str(self.intervals[index])

    def index_of_label(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"{self.name}: no label {label!r}") from None

    def interval_index_of(self, x: int) -> int:
        for i, iv in enumerate(self.intervals):
            if iv.contains(x):
                return i
        raise KeyError(f"{self.name}: {x} outside range {self.intervals[0].lower}..{self.intervals[-1].upper}")


@lru_cache(maxsize=256)
def _reaches(mutable: bool, monotonicity: Monotonicity, size: int) -> tuple[frozenset[int], ...]:
    """For each value index of a feature of ``size`` values, the set of value
    indices it can take from there on: only itself when it is immutable, else
    those on the side its monotonicity allows, or one full set every value
    shares when it has no monotonicity.  Shared by every :class:`Domains` of
    the process: at most 256 shapes, each holding ``size`` sets of at most
    ``size`` indices."""
    if not mutable:
        return tuple(frozenset((vi,)) for vi in range(size))
    if monotonicity == "nondecreasing":
        return tuple(frozenset(range(vi, size)) for vi in range(size))
    if monotonicity == "nonincreasing":
        return tuple(frozenset(range(vi + 1)) for vi in range(size))
    return (frozenset(range(size)),) * size


@dataclass(frozen=True)
class Domains:
    """Ordered collection of feature domains; the schema of a state space.

    Construction computes the name index, ``sizes`` (each feature's number
    of values, in declaration order) and ``reaches`` (per feature and value
    index, the set of values reachable from it, :func:`_reaches`) once; none
    takes part in equality, hashing or ``repr``.  A feature name declared
    twice is rejected, by name.
    """

    features: tuple[FeatureDomain, ...]
    _by_name: dict[str, int] = field(init=False, compare=False, repr=False)
    sizes: tuple[int, ...] = field(init=False, compare=False, repr=False)
    reaches: tuple[tuple[frozenset[int], ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        by_name = {f.name: i for i, f in enumerate(self.features)}
        if len(by_name) != len(self.features):
            name = next(f.name for i, f in enumerate(self.features) if by_name[f.name] != i)
            raise SemanticError("duplicate-declaration", f"feature {name!r} declared twice")
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "sizes", tuple(f.size for f in self.features))
        object.__setattr__(self, "reaches", tuple(_reaches(f.mutable, f.monotonicity, size)
                                                  for f, size in zip(self.features, self.sizes)))

    def __iter__(self) -> Iterator[FeatureDomain]:
        return iter(self.features)

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, i: int) -> FeatureDomain:
        return self.features[i]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise SemanticError("undeclared-feature", f"feature {name!r} is not declared") from None

    def by_name(self, name: str) -> FeatureDomain:
        return self.features[self.index(name)]

    @property
    def state_count(self) -> int:
        return math.prod(self.sizes)

    def make_state(self, values: Mapping[str, Union[str, int]]) -> "State":
        """Build a state from concrete values; numeric values keep their witness.

        A numeric value maps to its containing interval.  A missing feature,
        an unknown label, a non-integer (a ``bool`` and a float with a
        fractional part among them) or an out-of-range number raises
        :class:`OutOfDomain`.
        """
        idx = []
        reps: list[Optional[int]] = []
        for f in self.features:
            if f.name not in values:
                raise OutOfDomain(f.name, "record has no value for this feature")
            v = values[f.name]
            if f.kind == "categorical":
                try:
                    idx.append(f.index_of_label(str(v)))
                except KeyError:
                    raise OutOfDomain(f.name, f"{str(v)!r} is not a declared value") from None
                reps.append(None)
            else:
                if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
                    raise OutOfDomain(f.name, f"{v!r} is not an integer")
                try:
                    x = int(v)
                except (TypeError, ValueError):
                    raise OutOfDomain(f.name, f"{v!r} is not an integer") from None
                try:
                    idx.append(f.interval_index_of(x))
                except KeyError:
                    raise OutOfDomain(f.name, f"{x} is outside the declared range") from None
                reps.append(x)
        return State(self, tuple(idx), tuple(reps))


FeatureValue = Union[str, Interval]


@dataclass(frozen=True)
class State:
    """One value per feature.

    Internally a tuple of value indices (the interval index for numeric
    features), so equality and hashing follow the interval abstraction: two
    numeric values in the same interval are the same state, whatever concrete
    witness each carries.  Witnesses (``reps``) exist only for display.
    """

    domains: Domains = field(compare=False, repr=False)
    idx: tuple[int, ...] = ()
    reps: tuple[Optional[int], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if len(self.idx) != len(self.domains):
            raise ValueError("state arity does not match the declared features")
        if not self.reps:
            object.__setattr__(self, "reps", (None,) * len(self.idx))
        elif len(self.reps) != len(self.idx):
            raise ValueError("witness arity does not match the declared features")
        for i, size, f in zip(self.idx, self.domains.sizes, self.domains.features):
            if not 0 <= i < size:
                raise ValueError(f"{f.name}: value index {i} out of range")

    def value(self, name: str) -> FeatureValue:
        i = self.domains.index(name)
        f = self.domains[i]
        if f.kind == "categorical":
            return f.labels[self.idx[i]]
        return f.intervals[self.idx[i]]

    def display(self, name: str) -> str:
        """Rendering for path tables: concrete witness when known, else the interval."""
        i = self.domains.index(name)
        f = self.domains[i]
        if f.kind == "categorical":
            return f.labels[self.idx[i]]
        r = self.reps[i]
        return str(r) if r is not None else f.intervals[self.idx[i]].describe()

    def with_value(self, feature_index: int, new_index: int) -> "State":
        """This state with one feature moved; the moved feature has no witness.

        Only the written value is checked, with the error construction
        raises: every other value is this state's own.
        """
        idx = list(self.idx)
        reps = list(self.reps)
        idx[feature_index] = new_index
        reps[feature_index] = None
        if not 0 <= new_index < self.domains.sizes[feature_index]:
            raise ValueError(f"{self.domains[feature_index].name}: value index {new_index} out of range")
        moved = object.__new__(State)
        fields = moved.__dict__
        fields["domains"] = self.domains
        fields["idx"] = tuple(idx)
        fields["reps"] = tuple(reps)
        return moved

    def to_dict(self) -> dict:
        """JSON-ready mapping; numeric entries keep enough to rebuild the state."""
        out: dict = {}
        for pos, (f, i) in enumerate(zip(self.domains, self.idx)):
            if f.kind == "categorical":
                out[f.name] = f.labels[i]
            else:
                iv = f.intervals[i]
                out[f.name] = {
                    "interval_index": i,
                    "lower": iv.lower,
                    "upper": iv.upper,
                    "lower_open": iv.lower_open,
                    "value": self.reps[pos],
                }
        return out

    @classmethod
    def from_dict(cls, domains: Domains, data: Mapping) -> "State":
        """The state :meth:`to_dict` wrote.  A numeric entry must name its
        interval by an integer index in range, repeat that interval's bounds,
        and carry no witness or an integer inside the interval.  Every error
        names the feature."""
        idx = []
        reps: list[Optional[int]] = []
        for f in domains:
            if f.name not in data:
                raise KeyError(f"missing feature {f.name!r}")
            v = data[f.name]
            if f.kind == "categorical":
                idx.append(f.index_of_label(str(v)))
                reps.append(None)
            else:
                if not isinstance(v, Mapping):
                    raise TypeError(f"{f.name}: entry {v!r} is not an object")
                for field in ("interval_index", "lower", "upper", "lower_open"):
                    if field not in v:
                        raise KeyError(f"{f.name}: missing field {field!r}")
                i, rep = v["interval_index"], v.get("value")
                if type(i) is not int:
                    raise TypeError(f"{f.name}: interval index {i!r} is not an integer")
                if not 0 <= i < f.size:
                    raise ValueError(f"{f.name}: interval index {i} out of range")
                iv = f.intervals[i]
                if (v["lower"], v["upper"], v["lower_open"]) != (iv.lower, iv.upper, iv.lower_open):
                    raise ValueError(f"{f.name}: bounds disagree with {iv}")
                if rep is not None and (type(rep) is not int or not iv.contains(rep)):
                    raise ValueError(f"{f.name}: witness {rep!r} is not an integer in {iv}")
                idx.append(i)
                reps.append(rep)
        return cls(domains, tuple(idx), tuple(reps))


@dataclass(frozen=True)
class CandidatePath:
    """A path of states: a planner trace with its causally inconsistent
    intermediates removed, or a path read from a file for validation."""

    states: tuple[State, ...]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)
