"""Pointed finite sets and basepoint-preserving maps: the target of
graphs.underlying_pointed, and the inert/active classes it keeps.

The pointed set of size n has non-basepoint elements 1..n; the image 0
encodes the basepoint, which is never stored as a domain element.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import IndexOutOfRange


class MapClass(Enum):
    INERT = "inert"
    ACTIVE = "active"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class PointedMap:
    domain_size: int
    codomain_size: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.domain_size < 0 or self.codomain_size < 0:
            raise IndexOutOfRange("set sizes must be nonnegative")
        if len(self.images) != self.domain_size:
            raise IndexOutOfRange(
                f"expected {self.domain_size} images, got {len(self.images)}"
            )
        for i, v in enumerate(self.images):
            if not 0 <= v <= self.codomain_size:
                raise IndexOutOfRange(f"image of {i + 1} is {v}, outside [0, {self.codomain_size}]")
