"""Permutations of {1, ..., m} with the bookkeeping the alternating sums need."""

from __future__ import annotations

from typing import Sequence, Tuple

from .vectors import ValidationError


class Permutation:
    """A permutation w stored by its images (w(1), ..., w(m)), 1-based."""

    __slots__ = ("images", "_inversions")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        m = len(images)
        # by type, not value: 2.0 == 2 and True == 1, but neither is an int image
        if any(type(i) is not int for i in images) or sorted(images) != list(range(1, m + 1)):
            raise ValidationError("bad-permutation", f"not a permutation of 1..{m}: {images!r}")
        self.images = images
        self._inversions = None

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(range(1, m + 1))

    @classmethod
    def _searched(cls, images: Tuple[int, ...], inversions: int) -> "Permutation":
        """A permutation from a search that built its images and counted their
        inversions along the way; neither is checked or recounted."""
        w = cls.__new__(cls)
        w.images, w._inversions = images, inversions
        return w

    def __len__(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.images!r})"

    @property
    def inversions(self) -> int:
        """Number of pairs i < j with w(i) > w(j)."""
        if self._inversions is None:
            imgs = self.images
            self._inversions = sum(
                1
                for i in range(len(imgs))
                for j in range(i + 1, len(imgs))
                if imgs[i] > imgs[j]
            )
        return self._inversions

    @property
    def descents(self) -> int:
        """Number of positions i with w(i) > w(i+1)."""
        return sum(x > y for x, y in zip(self.images, self.images[1:]))

    @property
    def signature(self) -> int:
        return -1 if self.inversions % 2 else 1

    def apply(self, seq: Sequence) -> Tuple:
        """Rearrangement (seq_{w(1)}, ..., seq_{w(m)}) of a length-m sequence."""
        if len(seq) != len(self.images):
            raise ValidationError("bad-length", "sequence length does not match permutation size")
        return tuple(seq[i - 1] for i in self.images)
