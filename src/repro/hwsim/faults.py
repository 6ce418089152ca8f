"""Fault injection for gate-level verification campaigns.

A verification flow is only as good as its ability to *catch* broken
hardware.  This module injects classic structural faults into a compiled
netlist — stuck-at-0/1 outputs, stuck carry bits — so the test suite can
demonstrate that the bit-exact cross-checks actually detect defects, and
so users can run coverage-style campaigns over their own compiled
matrices (how many injected faults does a given stimulus set expose?).

Faults are first-class in the simulation engine
(:meth:`repro.hwsim.netlist.Netlist.add_fault`); the helpers here provide
reversible handles and a whole-netlist campaign driver.  Campaigns can
run on any of the three simulation engines — the vectorized/bit-plane
engines replay the injected faults bit-exactly while evaluating the
whole stimulus batch in one pass per fault, which is what makes
whole-netlist campaigns on non-trivial matrices practical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hwsim.builder import CompiledCircuit
from repro.hwsim.fast import ALL_ENGINES as _ENGINES, FastCircuit
from repro.hwsim.components import (
    Component,
    ConstantZero,
    InputStream,
    SerialAdder,
    SerialNegator,
    SerialSubtractor,
)
from repro.hwsim.netlist import Netlist

__all__ = ["FaultInjection", "inject_stuck_output", "inject_stuck_carry", "fault_campaign"]


@dataclass
class FaultInjection:
    """A reversible fault handle on one component."""

    netlist: Netlist
    component: Component
    kind: str
    value: int

    def revert(self) -> None:
        """Remove the fault, restoring fault-free behaviour."""
        self.netlist.remove_fault(self.component)


def inject_stuck_output(
    netlist: Netlist, component: Component, value: int
) -> FaultInjection:
    """Force a component's output to a constant (stuck-at fault)."""
    netlist.add_fault(component, "stuck_output", value)
    return FaultInjection(netlist, component, "stuck_output", value)


def inject_stuck_carry(
    netlist: Netlist, component: Component, value: int
) -> FaultInjection:
    """Force a serial adder/subtractor/negator's carry to a constant."""
    if not isinstance(component, (SerialAdder, SerialSubtractor, SerialNegator)):
        raise TypeError(
            f"carry faults need a carry-bearing primitive, got "
            f"{type(component).__name__}"
        )
    netlist.add_fault(component, "stuck_carry", value)
    return FaultInjection(netlist, component, "stuck_carry", value)


def fault_campaign(
    circuit: CompiledCircuit,
    vectors: np.ndarray,
    max_faults: int | None = None,
    rng: np.random.Generator | None = None,
    engine: str = "bitplane",
    service=None,
    shards: int | None = None,
    keep_deployment: bool = False,
) -> dict:
    """Stuck-at-output campaign: what fraction of faults do vectors expose?

    Each arithmetic/storage component (inputs and tied-off constants
    excluded) gets a stuck-at-1 output fault in turn; the circuit is run
    over all ``vectors`` and the fault counts as *detected* if any output
    differs from the fault-free golden result.

    ``engine`` picks the simulation engine per fault evaluation:
    ``"object"`` replays each vector through the object graph (the seed
    behaviour), while ``"scalar"``/``"bitplane"`` use
    :class:`~repro.hwsim.fast.FastCircuit`, which honours the injected
    faults and — with the default ``"bitplane"`` — evaluates the whole
    stimulus batch in one packed cycle loop per fault.  All engines are
    bit-exact, so the report is identical; only the wall clock differs.

    With ``service`` (a :class:`repro.serve.MatMulService`), the campaign
    is routed through the serving stack instead of driving the circuit
    directly: the plan's matrix is deployed (optionally column-sharded
    via ``shards``), faults are injected per shard, and every evaluation
    is a ``service.multiply`` call — so reliability sweeps share the
    shard executor, compile cache, and telemetry with production
    traffic.  The sweep covers the *deployment's* circuit, which the
    service compiles deterministically from the matrix (as all serve
    deploys are): functionally identical to ``circuit``, and
    structurally identical unless ``circuit`` was planned with a custom
    ``rng`` (seeded CSD coin flips) or is measured against a sharded
    deployment — in those cases per-gate counts can differ from the
    direct path even though both campaigns are exact for the structure
    they measure.  That is the intended semantics: a served sweep
    reports on what would actually be deployed.  The direct path (``service=None``) remains the default and
    the fallback.  Served reports carry extra ``served``/``deployment``/
    ``shards``/``telemetry`` keys; ``injected``/``detected``/``coverage``
    mean the same thing in both modes.  The campaign's private deployment
    is retired (``service.undeploy``) before returning — its final
    telemetry snapshot lives in the report — unless ``keep_deployment``
    is set, so repeated sweeps against a long-lived service do not
    accumulate executors.

    Returns a dict with ``injected``, ``detected`` and ``coverage``.
    """
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    if engine == "fused":
        raise ValueError(
            "engine='fused' executes the static shift-add schedule and cannot "
            "replay injected faults; campaigns run on the gate-level engines "
            f"{('object',) + FastCircuit.FAULT_CAPABLE_ENGINES}"
        )
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.int64))
    if service is not None:
        if engine == "object":
            raise ValueError(
                "the served campaign path executes through the shard engines; "
                "use the direct path (service=None) for engine='object'"
            )
        return _served_campaign(
            circuit, vectors, max_faults, rng, engine, service, shards,
            keep_deployment,
        )
    if engine == "object":
        golden_rows = [circuit.multiply(v) for v in vectors]

        def fault_exposed() -> bool:
            # Short-circuit on the first exposing vector: the object
            # engine is slow enough that this matters.
            return any(
                not np.array_equal(circuit.multiply(v), g)
                for v, g in zip(vectors, golden_rows)
            )
    else:
        fast = FastCircuit.from_compiled(circuit)
        golden = fast.multiply_batch(vectors, engine=engine)

        def fault_exposed() -> bool:
            return not np.array_equal(
                fast.multiply_batch(vectors, engine=engine), golden
            )
    candidates = [
        (circuit.netlist, c)
        for c in circuit.netlist.components
        if not isinstance(c, (InputStream, ConstantZero))
    ]
    return _run_campaign(candidates, fault_exposed, max_faults, rng)


def _sample_candidates(
    candidates: list, max_faults: int | None, rng: np.random.Generator | None
) -> list:
    if max_faults is not None and max_faults < len(candidates):
        rng = rng or np.random.default_rng(0)
        picks = rng.choice(len(candidates), size=max_faults, replace=False)
        candidates = [candidates[i] for i in sorted(picks)]
    return candidates


def _run_campaign(
    candidates: list,
    fault_exposed,
    max_faults: int | None,
    rng: np.random.Generator | None,
) -> dict:
    """Shared inject/evaluate/revert loop over (netlist, component) pairs."""
    candidates = _sample_candidates(candidates, max_faults, rng)
    detected = 0
    for netlist, component in candidates:
        injection = inject_stuck_output(netlist, component, 1)
        try:
            exposed = fault_exposed()
        finally:
            injection.revert()
        if exposed:
            detected += 1
    injected = len(candidates)
    return {
        "injected": injected,
        "detected": detected,
        "coverage": detected / injected if injected else 1.0,
    }


def _served_campaign(
    circuit: CompiledCircuit,
    vectors: np.ndarray,
    max_faults: int | None,
    rng: np.random.Generator | None,
    engine: str,
    service,
    shards: int | None,
    keep_deployment: bool,
) -> dict:
    """Campaign through the serving stack (see :func:`fault_campaign`).

    The deployment compiles its shards fresh (bypassing the service's
    shared compile cache) for two reasons: campaign fault injections must
    not leak into cached ``FastCircuit`` instances other traffic shares,
    and injection needs live netlists, which kernel-cache hits
    deliberately do not carry.
    """
    from repro.serve.service import MatMulService

    if not isinstance(service, MatMulService):
        raise TypeError(
            f"service must be a MatMulService, got {type(service).__name__}"
        )
    plan = circuit.plan
    handle = service.deploy(
        plan.matrix(),
        input_width=plan.input_width,
        scheme=plan.split.scheme,
        tree_style=plan.tree_style,
        shards=shards,
        use_cache=False,
    )
    try:
        sharded = handle.sharded
        golden = service.multiply(handle, vectors, engine=engine)

        def fault_exposed() -> bool:
            return not np.array_equal(
                service.multiply(handle, vectors, engine=engine), golden
            )

        candidates = [
            (shard.circuit.netlist, c)
            for shard in sharded.shards
            for c in shard.circuit.netlist.components
            if not isinstance(c, (InputStream, ConstantZero))
        ]
        report = _run_campaign(candidates, fault_exposed, max_faults, rng)
        report.update(
            served=True,
            deployment=handle.name,
            shards=sharded.shard_count,
            engine=engine,
            telemetry=service.telemetry(handle),
        )
    finally:
        if not keep_deployment:
            service.undeploy(handle)
    return report
