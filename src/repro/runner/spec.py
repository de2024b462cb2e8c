"""Declarative run specifications.

A :class:`RunSpec` describes one benchmark execution as pure, frozen,
hashable data: the workload (registry name or parametric definition), its
inputs, the lock kinds, and a :class:`MachineSpec` carrying the full chip
configuration plus the GLock-network knobs.  Because a spec is *data*, it
can be

- content-hashed (:meth:`RunSpec.digest`) to key the engine's persistent
  result cache,
- pickled across :class:`concurrent.futures.ProcessPoolExecutor` workers,
- round-tripped through JSON (:meth:`RunSpec.to_dict` /
  :meth:`RunSpec.from_dict`) for debugging and cache inspection.

Hash stability rests on :meth:`repro.sim.config.CMPConfig.to_dict` being
deterministic — exercised by the round-trip tests in
``tests/test_sim_config.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.faults.plan import FaultPlan
from repro.sim.config import CMPConfig

__all__ = ["MachineSpec", "RunSpec", "canonical_json"]

#: bump when the hashed spec schema or the cached payload format changes;
#: part of the digest, so old on-disk entries simply become misses
SPEC_VERSION = 1


def canonical_json(data: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class MachineSpec:
    """Everything needed to build a :class:`~repro.machine.Machine`.

    Wraps the :class:`CMPConfig` together with the ``Machine.__init__``
    keyword arguments (GLock tree depth, sharing, arbitration) that were
    previously unreachable from the experiment plumbing.
    """

    config: CMPConfig = field(default_factory=CMPConfig.baseline)
    glock_levels: int = 2
    allow_glock_sharing: bool = False
    glock_arbitration: str = "round_robin"
    #: fault-injection schedule (repro.faults); None or a non-enabled plan
    #: builds a fault-free machine and is *omitted from serialization*, so
    #: every pre-existing cache digest is unchanged
    fault_plan: Optional[FaultPlan] = None

    @classmethod
    def baseline(cls, n_cores: int = 32, **kwargs) -> "MachineSpec":
        """The paper's Table II chip at ``n_cores`` (extra kwargs pass through)."""
        return cls(config=CMPConfig.baseline(n_cores), **kwargs)

    @property
    def n_cores(self) -> int:
        return self.config.n_cores

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic plain-dict form (stable key order, JSON-safe)."""
        data = {
            "config": self.config.to_dict(),
            "glock_levels": self.glock_levels,
            "allow_glock_sharing": self.allow_glock_sharing,
            "glock_arbitration": self.glock_arbitration,
        }
        if self.fault_plan is not None and self.fault_plan.enabled:
            data["fault_plan"] = self.fault_plan.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MachineSpec":
        """Inverse of :meth:`to_dict`."""
        plan = data.get("fault_plan")
        return cls(
            config=CMPConfig.from_dict(data["config"]),
            glock_levels=data["glock_levels"],
            allow_glock_sharing=data["allow_glock_sharing"],
            glock_arbitration=data["glock_arbitration"],
            fault_plan=FaultPlan.from_dict(plan) if plan is not None else None,
        )


Params = Union[Mapping[str, Any], Sequence[Tuple[str, Any]]]


@dataclass(frozen=True)
class RunSpec:
    """One benchmark execution, fully described by data.

    ``workload`` is either a registry name (``sctr`` .. ``qsort``, built
    with the Table III inputs scaled by ``scale``) or a parametric
    workload (``synth`` / ``hotlocks``) configured by ``workload_params``.
    ``seed`` feeds workloads that draw randomness (e.g. the Raytrace
    proxy); ``0`` keeps each workload's own fixed default, so equal specs
    always replay identically regardless of execution order or process.
    """

    workload: str
    scale: float = 1.0
    hc_kind: str = "mcs"
    other_kind: str = "tatas"
    hc_kinds: Optional[Tuple[str, ...]] = None
    machine: MachineSpec = field(default_factory=MachineSpec)
    workload_params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    max_events: int = 200_000_000
    #: arm the kernel's deadlock watchdog (None = off, the default);
    #: omitted from serialization when None so existing digests hold
    max_cycles: Optional[int] = None
    #: attach the runtime invariant sanitizer to the machine (chaos runs);
    #: omitted from serialization when False so existing digests hold
    sanitize: bool = False

    def __post_init__(self) -> None:
        # normalize the sequence-ish fields so equal specs hash equally
        if self.hc_kinds is not None and not isinstance(self.hc_kinds, tuple):
            object.__setattr__(self, "hc_kinds", tuple(self.hc_kinds))
        params = self.workload_params
        if isinstance(params, Mapping):
            params = params.items()
        object.__setattr__(self, "workload_params",
                           tuple(sorted((str(k), v) for k, v in params)))

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def benchmark(cls, name: str, hc_kind: str = "mcs", *, n_cores: int = 32,
                  scale: float = 1.0, other_kind: str = "tatas",
                  hc_kinds: Optional[Sequence[str]] = None,
                  **kwargs) -> "RunSpec":
        """Mirror of the classic ``run_benchmark`` signature."""
        return cls(workload=name, scale=scale, hc_kind=hc_kind,
                   other_kind=other_kind,
                   hc_kinds=tuple(hc_kinds) if hc_kinds is not None else None,
                   machine=MachineSpec.baseline(n_cores), **kwargs)

    def with_fault_plan(self, plan: Optional[FaultPlan],
                        **overrides: Any) -> "RunSpec":
        """Copy of this spec whose machine carries ``plan`` (sweep helper).

        Extra keyword overrides (e.g. ``sanitize=True``,
        ``max_cycles=...``) are applied to the returned spec.
        """
        from dataclasses import replace
        return replace(self, machine=replace(self.machine, fault_plan=plan),
                       **overrides)

    # ------------------------------------------------------------------ #
    # serialization / hashing
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Deterministic plain-dict form (stable key order, JSON-safe)."""
        data = {
            "version": SPEC_VERSION,
            "workload": self.workload,
            "scale": self.scale,
            "hc_kind": self.hc_kind,
            "other_kind": self.other_kind,
            "hc_kinds": list(self.hc_kinds) if self.hc_kinds is not None else None,
            "machine": self.machine.to_dict(),
            "workload_params": [[k, v] for k, v in self.workload_params],
            "seed": self.seed,
            "max_events": self.max_events,
        }
        # new optional knobs are serialized only when set, so every spec
        # that predates them keeps its exact digest (cache compatibility)
        if self.max_cycles is not None:
            data["max_cycles"] = self.max_cycles
        if self.sanitize:
            data["sanitize"] = True
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            workload=data["workload"],
            scale=data["scale"],
            hc_kind=data["hc_kind"],
            other_kind=data["other_kind"],
            hc_kinds=(tuple(data["hc_kinds"])
                      if data["hc_kinds"] is not None else None),
            machine=MachineSpec.from_dict(data["machine"]),
            workload_params=tuple((k, v) for k, v in data["workload_params"]),
            seed=data["seed"],
            max_events=data["max_events"],
            max_cycles=data.get("max_cycles"),
            sanitize=data.get("sanitize", False),
        )

    def digest(self) -> str:
        """Content hash: the cache key of this run."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode()).hexdigest()

    def describe(self) -> str:
        """Short human-readable label (progress/log lines)."""
        kinds = ("/".join(self.hc_kinds) if self.hc_kinds is not None
                 else self.hc_kind)
        extra = "".join(f" {k}={v}" for k, v in self.workload_params)
        return (f"{self.workload}[{kinds}] cores={self.machine.n_cores} "
                f"scale={self.scale}{extra}")
