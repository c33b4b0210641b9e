"""The one verdict shape of every Level-3 checker and the diagonal-algebra test.

Accept carries the certificate h (and, for SL(2,C), its generator coordinates);
Reject carries a structured witness of where the check failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar


@dataclass(frozen=True)
class Accept:
    h: Any
    coords: Any = None
    accepted: ClassVar[bool] = True


@dataclass(frozen=True)
class Reject:
    witness: Any
    accepted: ClassVar[bool] = False
