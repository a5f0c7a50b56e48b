"""Physical execution: volcano operators (:mod:`repro.exec.operators`),
numpy column-batch kernels (:mod:`repro.exec.batch`) and plan fragments
(:mod:`repro.exec.fragments`)."""

from repro.exec.operators import PhysicalOp, walk_physical

__all__ = ["PhysicalOp", "walk_physical"]
