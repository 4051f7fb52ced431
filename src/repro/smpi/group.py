"""MPI process groups (paper section 5.1: "process groups ... and their
operations").

A :class:`Group` is an ordered set of *world ranks*: position ``i`` in the
tuple is the group-local rank ``i``, the value is the rank in
``COMM_WORLD``.  All the MPI-1 group calculus is implemented (union,
intersection, difference, incl/excl, range variants, translate, compare).
Groups are immutable and hashable.
"""

from __future__ import annotations

from ..errors import MpiError
from . import constants

__all__ = ["Group", "GROUP_EMPTY", "IDENT", "SIMILAR", "UNEQUAL"]

# comparison results (MPI_IDENT / MPI_SIMILAR / MPI_UNEQUAL)
IDENT = 0
SIMILAR = 1
UNEQUAL = 2


class Group:
    """An immutable ordered set of world ranks."""

    __slots__ = ("ranks", "_index", "identity")

    def __init__(self, ranks: tuple[int, ...] | list[int]):
        ranks = tuple(int(r) for r in ranks)
        if len(set(ranks)) != len(ranks):
            raise MpiError(constants.ERR_GROUP, f"duplicate ranks in group: {ranks}")
        if any(r < 0 for r in ranks):
            raise MpiError(constants.ERR_GROUP, f"negative rank in group: {ranks}")
        self.ranks = ranks
        self._index = {world: local for local, world in enumerate(ranks)}
        #: every member's local rank is its world rank (a prefix of
        #: ``COMM_WORLD``), so no rank needs translating
        self.identity = ranks == tuple(range(len(ranks)))

    # -- queries -------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.ranks)

    def rank_of(self, world_rank: int) -> int:
        """Group-local rank of a world rank (UNDEFINED if absent)."""
        return self._index.get(world_rank, constants.UNDEFINED)

    def world_rank(self, local_rank: int) -> int:
        """World rank of a group-local rank."""
        if not 0 <= local_rank < self.size:
            raise MpiError(
                constants.ERR_RANK, f"rank {local_rank} out of range [0,{self.size})"
            )
        return self.ranks[local_rank]

    def contains(self, world_rank: int) -> bool:
        return world_rank in self._index

    def translate_ranks(self, ranks: list[int], other: "Group") -> list[int]:
        """MPI_Group_translate_ranks: map local ranks here to ranks there."""
        out = []
        for rank in ranks:
            world = self.world_rank(rank)
            out.append(other.rank_of(world))
        return out

    def compare(self, other: "Group") -> int:
        """MPI_Group_compare."""
        if self.ranks == other.ranks:
            return IDENT
        if set(self.ranks) == set(other.ranks):
            return SIMILAR
        return UNEQUAL

    # -- set calculus -----------------------------------------------------------------

    def union(self, other: "Group") -> "Group":
        """Members of self, then members of other not in self (MPI order)."""
        extra = [r for r in other.ranks if r not in self._index]
        return Group(self.ranks + tuple(extra))

    def intersection(self, other: "Group") -> "Group":
        return Group(tuple(r for r in self.ranks if other.contains(r)))

    def difference(self, other: "Group") -> "Group":
        return Group(tuple(r for r in self.ranks if not other.contains(r)))

    def incl(self, ranks: list[int]) -> "Group":
        """MPI_Group_incl: subgroup of the listed local ranks, in order."""
        return Group(tuple(self.world_rank(r) for r in ranks))

    def excl(self, ranks: list[int]) -> "Group":
        """MPI_Group_excl: subgroup without the listed local ranks."""
        drop = set(ranks)
        for r in drop:
            self.world_rank(r)  # validates range
        return Group(
            tuple(w for local, w in enumerate(self.ranks) if local not in drop)
        )

    def range_incl(self, ranges: list[tuple[int, int, int]]) -> "Group":
        """MPI_Group_range_incl: ranges are (first, last, stride) triples."""
        picked: list[int] = []
        for first, last, stride in ranges:
            if stride == 0:
                raise MpiError(constants.ERR_ARG, "zero stride in range")
            stop = last + (1 if stride > 0 else -1)
            picked.extend(range(first, stop, stride))
        return self.incl(picked)

    def range_excl(self, ranges: list[tuple[int, int, int]]) -> "Group":
        """MPI_Group_range_excl."""
        picked: set[int] = set()
        for first, last, stride in ranges:
            if stride == 0:
                raise MpiError(constants.ERR_ARG, "zero stride in range")
            stop = last + (1 if stride > 0 else -1)
            picked.update(range(first, stop, stride))
        return self.excl(sorted(picked))

    # -- dunder -------------------------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and other.ranks == self.ranks

    def __hash__(self) -> int:
        return hash(self.ranks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group{self.ranks}"


GROUP_EMPTY = Group(())
