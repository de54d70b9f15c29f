"""Instance-level dedup of multi-cut fragment subcircuits.

The monolithic multi-cut executor (:mod:`repro.cutting.multi_wire`) builds
one full-width circuit per element of the Cartesian product of the per-cut
QPD terms — mⁿ circuits for n cuts — and every one of them re-simulates the
same fragment bodies.  For *full-slice* plans (every wire crossing a time
slice is cut there) the quantum state factorises at each slice: the only
coupling between consecutive fragments is classical — the message bits a
cut gadget's sender half measures and its receiver half conditions on.

This module exploits that structure, following the
``run_subcircuit_instances`` / ``generate_summation_terms`` split of the
circuit-knitting-toolbox lineage:

1. every protocol term's gadget is split into a sender half and a receiver
   half (:func:`split_wire_cut_term`); protocols whose gadgets entangle
   both sides of a cut (the NME/teleportation family consumes a pre-shared
   pair) are detected and reported as unsupported, so callers fall back to
   the monolithic path;
2. the unique **fragment instances** — one compact, fragment-local circuit
   per (fragment, incoming cut terms + resolved message values, outgoing
   cut terms) combination — are enumerated once per plan
   (:class:`InstanceTable`);
3. each instance is evaluated exactly once through the existing
   :class:`~repro.circuits.backends.SimulatorBackend` seam (and therefore
   the :class:`~repro.circuits.backends.DistributionCache`), yielding a
   conditional distribution tensor per instance;
4. every QPD product term indexes into the shared table: its exact signed
   outcome probability ``p₊`` is a transfer-matrix chain over its
   fragments' tensors (:mod:`repro.qpd.contraction`), and exact values
   contract the whole κⁿ summation in one pass
   (:meth:`InstanceTable.contract_exact_value`).

The payoff is twofold: simulation cost drops from mⁿ monolithic circuits to
the (far fewer, exponentially narrower) unique instances, and reconstruction
drops from materialising the κⁿ summation to a chain contraction that is
linear in the number of fragments.  Sampling the product terms is the term
executor's job: :func:`repro.cutting.executor.sampling_models_from_instances`
turns an evaluated table into per-term ``p₊`` values for its binomial round
source.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import partial
from itertools import product

import numpy as np

from repro.exceptions import CuttingError
from repro.circuits.backends import DistributionCache, SimulatorBackend, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import _BASIS_CHANGE
from repro.circuits.instruction import Instruction
from repro.cutting.base import GadgetWiring, WireCutProtocol, WireCutTerm
from repro.cutting.cut_finding import MultiCutPlan, _wire_usage
from repro.cutting.executor import _as_pauli
from repro.qpd.contraction import chain_probability_plus, signed_transfer
from repro.quantum.paulis import PauliString

__all__ = [
    "SplitGadget",
    "split_wire_cut_term",
    "instance_support_reason",
    "supports_instance_dedup",
    "FragmentInstance",
    "InstanceStats",
    "InstanceTable",
    "build_instance_table",
]

#: Scratch wiring used to materialise a gadget for splitting.
_SCRATCH_SENDER = 0
_SCRATCH_RECEIVER = 1


@dataclass(frozen=True)
class SplitGadget:
    """A wire-cut term's gadget, partitioned across the cut.

    Attributes
    ----------
    term:
        The :class:`~repro.cutting.base.WireCutTerm` the split came from.
    sender_instructions:
        Instructions touching only the sender qubit (and gadget ancillas),
        expressed on the scratch wiring (sender = qubit 0, ancillas from
        qubit 2) with gadget-relative classical bits.
    receiver_instructions:
        Instructions touching only the receiver qubit (scratch qubit 1);
        their conditions reference gadget-relative classical bits written
        by the sender half.
    message_clbits:
        Gadget-relative classical bits the receiver half conditions on —
        the classical message crossing the cut.
    """

    term: WireCutTerm
    sender_instructions: tuple[Instruction, ...]
    receiver_instructions: tuple[Instruction, ...]
    message_clbits: tuple[int, ...]

    @property
    def num_message_bits(self) -> int:
        """Number of classical bits the cut communicates."""
        return len(self.message_clbits)


def split_wire_cut_term(term: WireCutTerm) -> SplitGadget | None:
    """Partition a term's gadget into sender and receiver halves.

    The gadget is built once on a scratch wiring and its instructions are
    classified by the qubits they touch.  A split exists exactly when the
    gadget is LOCC across the cut: no instruction spans both sides, the
    receiver side writes no classical bits, and every receiver-side
    condition reads a bit the sender side has already measured.  Gadgets
    violating any of these (e.g. the NME/teleportation family, whose
    resource-pair preparation entangles an ancilla with the receiver)
    return ``None``, signalling the caller to fall back to the monolithic
    per-term path.

    Parameters
    ----------
    term:
        The wire-cut term to split.

    Returns
    -------
    SplitGadget | None
        The split gadget, or ``None`` when the gadget cannot be factored
        across the cut.
    """
    return _split(term, term.gadget_instructions)


def _protocol_splits(protocol: WireCutProtocol) -> tuple[SplitGadget | None, ...]:
    """Split every term of ``protocol``, taking each gadget from the protocol's memo."""
    return tuple(
        _split(term, partial(protocol.gadget_instructions, index))
        for index, term in enumerate(protocol.terms)
    )


def _split(
    term: WireCutTerm,
    gadget_instructions: Callable[[GadgetWiring, int, int], Sequence[Instruction]],
) -> SplitGadget | None:
    """Build ``term``'s gadget on the scratch wiring and classify its instructions."""
    wiring = GadgetWiring(
        sender_qubit=_SCRATCH_SENDER,
        receiver_qubit=_SCRATCH_RECEIVER,
        ancilla_qubits=tuple(range(2, 2 + term.num_ancilla_qubits)),
        clbit_offset=0,
    )
    try:
        instructions = gadget_instructions(
            wiring, 2 + term.num_ancilla_qubits, term.num_gadget_clbits
        )
    except CuttingError:
        return None
    sender_side = {_SCRATCH_SENDER} | set(wiring.ancilla_qubits)
    sender: list[Instruction] = []
    receiver: list[Instruction] = []
    written: set[int] = set()
    message: set[int] = set()
    for instruction in instructions:
        if instruction.kind == "barrier":
            continue
        touched = set(instruction.qubits)
        if touched <= sender_side:
            sender.append(instruction)
            written.update(instruction.clbits)
        elif touched == {_SCRATCH_RECEIVER}:
            if instruction.clbits:
                return None
            if instruction.condition is not None:
                clbit, _ = instruction.condition
                if clbit not in written:
                    return None
                message.add(clbit)
            receiver.append(instruction)
        else:
            return None
    return SplitGadget(
        term=term,
        sender_instructions=tuple(sender),
        receiver_instructions=tuple(receiver),
        message_clbits=tuple(sorted(message)),
    )


def instance_support_reason(
    circuit: QuantumCircuit,
    plan: MultiCutPlan,
    protocols: Sequence[WireCutProtocol],
) -> str | None:
    """Explain why instance dedup cannot serve a plan, or ``None`` if it can.

    Dedup requires the fragment chain to factorise at every slice:

    * the plan must contain at least one cut, every cut must sit on an
      interior time slice, and every wire crossing a slice must be cut
      there (the shape :func:`~repro.cutting.cut_finding.plan_from_positions`
      guarantees; hand-built plans with end-of-circuit cuts do not);
    * the original circuit must be measurement-free (no classical bits
      threading state between fragments);
    * every protocol term's gadget must split across the cut
      (:func:`split_wire_cut_term`).

    Parameters
    ----------
    circuit:
        The original (uncut) circuit.
    plan:
        The multi-cut plan.
    protocols:
        One protocol per cut location.

    Returns
    -------
    str | None
        A human-readable reason when unsupported; ``None`` when the plan
        can be evaluated through an :class:`InstanceTable`.
    """
    if plan.num_cuts == 0:
        return "plan has no cuts, so there is nothing to dedup"
    if len(protocols) != plan.num_cuts:
        return (
            f"plan has {plan.num_cuts} cuts but {len(protocols)} protocols were given"
        )
    for instruction in circuit.instructions:
        if instruction.clbits or instruction.condition is not None:
            return "base circuit uses classical bits, which may couple fragments"
    positions = set(plan.positions)
    qubits_by_position: dict[int, set[int]] = {}
    for location in plan.locations:
        if location.position not in positions:
            return (
                f"cut at position {location.position} is not an interior time slice "
                "of the plan"
            )
        qubits_by_position.setdefault(location.position, set()).add(location.qubit)
    usage = _wire_usage(circuit)
    for position in plan.positions:
        crossing = {q for q, (first, last) in usage.items() if first < position <= last}
        if qubits_by_position.get(position, set()) != crossing:
            return f"slice at position {position} does not cut every crossing wire"
    for protocol in protocols:
        for term, split in zip(protocol.terms, _protocol_splits(protocol)):
            if split is None:
                return (
                    f"protocol {protocol.name!r} term {term.label!r} has a gadget "
                    "spanning both sides of the cut"
                )
    return None


def supports_instance_dedup(
    circuit: QuantumCircuit,
    plan: MultiCutPlan,
    protocols: Sequence[WireCutProtocol],
) -> bool:
    """Return True when the plan can be evaluated through an :class:`InstanceTable`."""
    return instance_support_reason(circuit, plan, protocols) is None


@dataclass(frozen=True)
class FragmentInstance:
    """One unique (fragment, basis-config) subcircuit instance.

    Attributes
    ----------
    fragment_index:
        Which fragment of the plan the instance belongs to.
    in_config:
        Per incoming cut (in location order): the chosen term index and the
        assumed values of that term's message bits.  Incoming receiver
        instructions are resolved against these values at build time.
    out_config:
        The chosen term index per outgoing cut (in location order).
    circuit:
        The compact fragment-local circuit: resolved receiver halves, the
        fragment body, outgoing sender halves and any observable
        measurements finalised in this fragment.
    message_clbits:
        Local classical bits carrying the outgoing message, flattened in
        cut order (most significant first in the configuration index).
    parity_clbits:
        Local classical bits whose parity contributes to the signed
        observable outcome (observable measurements plus outgoing sign
        bits).
    """

    fragment_index: int
    in_config: tuple[tuple[int, tuple[int, ...]], ...]
    out_config: tuple[int, ...]
    circuit: QuantumCircuit
    message_clbits: tuple[int, ...]
    parity_clbits: tuple[int, ...]


@dataclass(frozen=True)
class InstanceStats:
    """Dedup accounting of one instance-table evaluation.

    Attributes
    ----------
    num_terms:
        Size of the QPD product term set (mⁿ).
    num_fragments:
        Fragments in the plan.
    num_cuts:
        Wire cuts in the plan.
    num_instances:
        Unique fragment instances the table simulated (the *misses* of the
        dedup cache).
    num_references:
        Fragment evaluations a per-term path would have run; the table
        serves ``num_references − num_instances`` of them from the shared
        entries (the *hits*).
    cache_hits / cache_misses:
        The table's own accounting: hits are references served without a
        new simulation, misses are the unique instances evaluated.
    distribution_cache_hits / distribution_cache_misses:
        Hits/misses the evaluation contributed to the backend's
        :class:`~repro.circuits.backends.DistributionCache`, when the
        backend exposes one (0 otherwise).
    """

    num_terms: int
    num_fragments: int
    num_cuts: int
    num_instances: int
    num_references: int
    distribution_cache_hits: int = 0
    distribution_cache_misses: int = 0

    @property
    def cache_hits(self) -> int:
        """References served from the shared table without a new simulation."""
        return self.num_references - self.num_instances

    @property
    def cache_misses(self) -> int:
        """Unique instances that had to be simulated."""
        return self.num_instances

    @property
    def dedup_ratio(self) -> float:
        """How many per-term fragment evaluations each unique instance serves."""
        if self.num_instances == 0:
            return 1.0
        return self.num_references / self.num_instances

    def to_payload(self) -> dict:
        """Return the JSON-serializable form of the statistics."""
        return {
            "num_terms": int(self.num_terms),
            "num_fragments": int(self.num_fragments),
            "num_cuts": int(self.num_cuts),
            "num_instances": int(self.num_instances),
            "num_references": int(self.num_references),
            "distribution_cache_hits": int(self.distribution_cache_hits),
            "distribution_cache_misses": int(self.distribution_cache_misses),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "InstanceStats":
        """Rebuild the statistics from a stored payload."""
        return cls(
            num_terms=int(payload["num_terms"]),
            num_fragments=int(payload["num_fragments"]),
            num_cuts=int(payload["num_cuts"]),
            num_instances=int(payload["num_instances"]),
            num_references=int(payload["num_references"]),
            distribution_cache_hits=int(payload.get("distribution_cache_hits", 0)),
            distribution_cache_misses=int(payload.get("distribution_cache_misses", 0)),
        )


@dataclass(frozen=True)
class _FragmentLayout:
    """Static per-fragment data shared by all of the fragment's instances."""

    index: int
    start: int
    stop: int
    local_qubits: tuple[int, ...]
    in_cuts: tuple[int, ...]
    out_cuts: tuple[int, ...]
    observable_targets: tuple[tuple[int, str], ...]

    @property
    def qubit_index(self) -> dict[int, int]:
        """Mapping from original wire index to fragment-local qubit index."""
        return {qubit: local for local, qubit in enumerate(self.local_qubits)}


class InstanceTable:
    """Shared table of unique fragment instances for one multi-cut plan.

    Construction enumerates every unique (fragment, basis-config) instance
    of the plan; :meth:`evaluate` simulates each exactly once through a
    :class:`~repro.circuits.backends.SimulatorBackend` and converts the
    resulting distributions into conditional tensors.  QPD product terms
    then index into the table: :meth:`term_probability_plus` chains the
    term's tensors into its exact ``p₊``, and
    :meth:`contract_exact_value` folds coefficients and parity signs into
    a single chain contraction of the whole κⁿ summation.

    Use :func:`build_instance_table` to construct one (it validates plan
    support and raises a :class:`~repro.exceptions.CuttingError` naming
    the obstruction otherwise).

    Parameters
    ----------
    circuit:
        The original (uncut) circuit.
    plan:
        A full-slice :class:`~repro.cutting.cut_finding.MultiCutPlan`.
    protocols:
        One splittable protocol per cut location.
    observable:
        Pauli observable over the circuit's logical qubits.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        plan: MultiCutPlan,
        protocols: Sequence[WireCutProtocol],
        observable: str | PauliString,
    ):
        reason = instance_support_reason(circuit, plan, list(protocols))
        if reason is not None:
            raise CuttingError(f"plan does not support instance dedup: {reason}")
        self.circuit = circuit
        self.plan = plan
        self.protocols = tuple(protocols)
        self.pauli = _as_pauli(observable, circuit.num_qubits)
        self._splits: tuple[tuple[SplitGadget, ...], ...] = tuple(
            _protocol_splits(protocol)  # type: ignore[misc]
            for protocol in self.protocols
        )
        # Monolithic coefficient products multiply in descending-position
        # order (ties keep location order); replicate it exactly so the
        # dedup path's coefficients are bitwise identical.
        self._coefficient_order = sorted(
            range(plan.num_cuts),
            key=lambda index: plan.locations[index].position,
            reverse=True,
        )
        self._layouts = self._build_layouts()
        self._instances: dict[tuple, FragmentInstance] = {}
        self._order: list[tuple] = []
        self._enumerate_instances()
        self._tensors: dict[tuple, np.ndarray] | None = None
        self._stats: InstanceStats | None = None

    # -- enumeration -------------------------------------------------------------------

    def _build_layouts(self) -> tuple[_FragmentLayout, ...]:
        """Derive the static per-fragment layouts from the plan."""
        usage = _wire_usage(self.circuit)
        fragments = self.plan.fragments
        # Final fragment of each observable-active wire: where its last
        # instruction lives (nothing later touches the wire, so measuring
        # there equals measuring at the end of the full circuit).  Wires the
        # circuit never touches stay in |0> and are measured in fragment 0.
        targets_by_fragment: dict[int, list[tuple[int, str]]] = {}
        untouched_active: list[int] = []
        for qubit, label in enumerate(self.pauli.labels):
            if label == "I":
                continue
            if qubit not in usage:
                untouched_active.append(qubit)
                targets_by_fragment.setdefault(0, []).append((qubit, label))
                continue
            last = usage[qubit][1]
            for index, fragment in enumerate(fragments):
                if fragment.start <= last < fragment.stop:
                    targets_by_fragment.setdefault(index, []).append((qubit, label))
                    break
        layouts = []
        for index, fragment in enumerate(fragments):
            local = set(fragment.qubits)
            if index == 0:
                local.update(untouched_active)
            layouts.append(
                _FragmentLayout(
                    index=index,
                    start=fragment.start,
                    stop=fragment.stop,
                    local_qubits=tuple(sorted(local)),
                    in_cuts=tuple(
                        cut
                        for cut, location in enumerate(self.plan.locations)
                        if location.position == fragment.start
                    ),
                    out_cuts=tuple(
                        cut
                        for cut, location in enumerate(self.plan.locations)
                        if location.position == fragment.stop
                    ),
                    observable_targets=tuple(
                        sorted(targets_by_fragment.get(index, []))
                    ),
                )
            )
        return tuple(layouts)

    def _in_options(self, cut: int) -> list[tuple[int, tuple[int, ...]]]:
        """All (term index, message values) pairs an incoming cut can take."""
        options = []
        for term_index, split in enumerate(self._splits[cut]):
            for bits in product((0, 1), repeat=split.num_message_bits):
                options.append((term_index, bits))
        return options

    def _enumerate_instances(self) -> None:
        """Build every unique fragment instance of the plan."""
        for layout in self._layouts:
            in_options = [self._in_options(cut) for cut in layout.in_cuts]
            out_options = [range(len(self._splits[cut])) for cut in layout.out_cuts]
            for in_config in product(*in_options):
                for out_config in product(*out_options):
                    instance = self._build_instance(layout, in_config, tuple(out_config))
                    key = (layout.index, in_config, tuple(out_config))
                    self._instances[key] = instance
                    self._order.append(key)

    def _build_instance(
        self,
        layout: _FragmentLayout,
        in_config: tuple[tuple[int, tuple[int, ...]], ...],
        out_config: tuple[int, ...],
    ) -> FragmentInstance:
        """Assemble the compact fragment-local circuit of one instance."""
        qubit_index = layout.qubit_index
        num_ancillas = sum(
            self._splits[cut][term_index].term.num_ancilla_qubits
            for cut, term_index in zip(layout.out_cuts, out_config)
        )
        num_gadget_clbits = sum(
            self._splits[cut][term_index].term.num_gadget_clbits
            for cut, term_index in zip(layout.out_cuts, out_config)
        )
        circuit = QuantumCircuit(
            len(layout.local_qubits) + num_ancillas,
            num_gadget_clbits + len(layout.observable_targets),
            name=f"{self.circuit.name}_frag{layout.index}",
        )
        # Incoming receiver halves, conditions resolved against the assumed
        # message values (kept and unconditioned on a match, dropped otherwise).
        for cut, (term_index, bits) in zip(layout.in_cuts, in_config):
            split = self._splits[cut][term_index]
            target = qubit_index[self.plan.locations[cut].qubit]
            assigned = dict(zip(split.message_clbits, bits))
            for instruction in split.receiver_instructions:
                if instruction.condition is not None:
                    clbit, value = instruction.condition
                    if assigned[clbit] != value:
                        continue
                    instruction = replace(instruction, condition=None)
                circuit.append(instruction.remap({_SCRATCH_RECEIVER: target}))
        # Fragment body, compacted onto the local register.
        for instruction in self.circuit.instructions[layout.start : layout.stop]:
            circuit.append(instruction.remap(qubit_index))
        # Outgoing sender halves.
        clbit_cursor = 0
        ancilla_cursor = len(layout.local_qubits)
        message_clbits: list[int] = []
        parity_clbits: list[int] = []
        for cut, term_index in zip(layout.out_cuts, out_config):
            split = self._splits[cut][term_index]
            term = split.term
            qubit_map = {_SCRATCH_SENDER: qubit_index[self.plan.locations[cut].qubit]}
            for offset in range(term.num_ancilla_qubits):
                qubit_map[2 + offset] = ancilla_cursor
                ancilla_cursor += 1
            clbit_map = {
                relative: clbit_cursor + relative
                for relative in range(term.num_gadget_clbits)
            }
            for instruction in split.sender_instructions:
                circuit.append(instruction.remap(qubit_map, clbit_map))
            message_clbits.extend(clbit_cursor + relative for relative in split.message_clbits)
            parity_clbits.extend(clbit_cursor + relative for relative in term.sign_clbits)
            clbit_cursor += term.num_gadget_clbits
        # Observable measurements finalised in this fragment.
        for offset, (qubit, label) in enumerate(layout.observable_targets):
            local = qubit_index[qubit]
            for gate_name, params in _BASIS_CHANGE[label]:
                circuit.gate(gate_name, local, params)
            clbit = num_gadget_clbits + offset
            circuit.measure(local, clbit)
            parity_clbits.append(clbit)
        return FragmentInstance(
            fragment_index=layout.index,
            in_config=in_config,
            out_config=out_config,
            circuit=circuit,
            message_clbits=tuple(message_clbits),
            parity_clbits=tuple(parity_clbits),
        )

    # -- sizes -------------------------------------------------------------------------

    @property
    def num_fragments(self) -> int:
        """Number of fragments in the plan."""
        return len(self._layouts)

    @property
    def num_instances(self) -> int:
        """Number of unique fragment instances the table holds."""
        return len(self._order)

    @property
    def num_terms(self) -> int:
        """Size of the QPD product term set (mⁿ)."""
        count = 1
        for splits in self._splits:
            count *= len(splits)
        return count

    @property
    def num_references(self) -> int:
        """Fragment evaluations the per-term path would run for the full term set."""
        term_counts = [len(splits) for splits in self._splits]
        total = 0
        for layout in self._layouts:
            references = 1
            for cut, count in enumerate(term_counts):
                if cut in layout.in_cuts:
                    references *= len(self._in_options(cut))
                else:
                    references *= count
            total += references
        return total

    @property
    def instances(self) -> tuple[FragmentInstance, ...]:
        """Every unique fragment instance, in enumeration order."""
        return tuple(self._instances[key] for key in self._order)

    @property
    def stats(self) -> InstanceStats:
        """Dedup statistics of the last evaluation (evaluation required)."""
        if self._stats is None:
            raise CuttingError("instance table has not been evaluated yet")
        return self._stats

    # -- evaluation --------------------------------------------------------------------

    def evaluate(self, backend: SimulatorBackend | str | None = None) -> InstanceStats:
        """Simulate every unique instance once and build its conditional tensor.

        Evaluation is idempotent: a table that already holds tensors returns
        its statistics without re-simulating.

        Parameters
        ----------
        backend:
            Execution backend (name or instance); ``None`` selects serial.

        Returns
        -------
        InstanceStats
            The dedup accounting of the evaluation.
        """
        if self._tensors is not None and self._stats is not None:
            return self._stats
        exec_backend = resolve_backend(backend)
        cache = getattr(exec_backend, "cache", None)
        if not isinstance(cache, DistributionCache):
            cache = None
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        circuits = [self._instances[key].circuit for key in self._order]
        distributions = exec_backend.exact_distributions(circuits)
        tensors: dict[tuple, np.ndarray] = {}
        for key, distribution in zip(self._order, distributions):
            tensors[key] = _conditional_tensor(self._instances[key], distribution)
        self._tensors = tensors
        self._stats = InstanceStats(
            num_terms=self.num_terms,
            num_fragments=self.num_fragments,
            num_cuts=self.plan.num_cuts,
            num_instances=self.num_instances,
            num_references=self.num_references,
            distribution_cache_hits=(cache.hits - hits_before) if cache is not None else 0,
            distribution_cache_misses=(cache.misses - misses_before) if cache is not None else 0,
        )
        return self._stats

    # -- per-term views ----------------------------------------------------------------

    def term_assignments(self) -> list[tuple[int, ...]]:
        """All per-cut term index assignments, in monolithic product order."""
        return [
            tuple(choice)
            for choice in product(*(range(len(splits)) for splits in self._splits))
        ]

    def term_coefficient(self, assignment: tuple[int, ...]) -> float:
        """Product coefficient of one term assignment (monolithic multiply order)."""
        coefficient = 1.0
        for cut in self._coefficient_order:
            coefficient *= self._splits[cut][assignment[cut]].term.coefficient
        return coefficient

    def term_label(self, assignment: tuple[int, ...]) -> str:
        """Combined term label (per-cut labels joined with ``+``, location order)."""
        return "+".join(
            self._splits[cut][term_index].term.label
            for cut, term_index in enumerate(assignment)
        )

    def term_entangled_pairs(self, assignment: tuple[int, ...]) -> int:
        """Pre-shared entangled pairs one shot of the assignment consumes."""
        return sum(
            1
            for cut, term_index in enumerate(assignment)
            if self._splits[cut][term_index].term.consumes_entangled_pair
        )

    def _term_in_configs(
        self, layout: _FragmentLayout, assignment: tuple[int, ...]
    ) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
        """Incoming configurations of one fragment under a fixed assignment.

        The enumeration order matches the outgoing-configuration index of
        the previous fragment's tensor (big-endian over the flattened
        message bits), which is what keeps the chain contraction aligned.
        """
        options = []
        for cut in layout.in_cuts:
            term_index = assignment[cut]
            split = self._splits[cut][term_index]
            options.append(
                [(term_index, bits) for bits in product((0, 1), repeat=split.num_message_bits)]
            )
        return [tuple(combo) for combo in product(*options)]

    def term_chain_tensors(self, assignment: tuple[int, ...]) -> list[np.ndarray]:
        """Stack one term's per-fragment tensors for the chain contraction.

        Parameters
        ----------
        assignment:
            The per-cut term index choice.

        Returns
        -------
        list[numpy.ndarray]
            One ``(num_in_configs, num_out_configs, 2)`` tensor per
            fragment, ready for
            :func:`~repro.qpd.contraction.chain_probability_plus`.
        """
        if self._tensors is None:
            raise CuttingError("instance table has not been evaluated yet")
        chain = []
        for layout in self._layouts:
            out_config = tuple(assignment[cut] for cut in layout.out_cuts)
            stacked = np.stack(
                [
                    self._tensors[(layout.index, in_config, out_config)]
                    for in_config in self._term_in_configs(layout, assignment)
                ]
            )
            chain.append(stacked)
        return chain

    def term_probability_plus(self, assignment: tuple[int, ...]) -> float:
        """Exact ``p₊`` of one product term via the memoized fragment chain."""
        return chain_probability_plus(self.term_chain_tensors(assignment))

    def materialized_term_probability_plus(
        self,
        assignment: tuple[int, ...],
        backend: SimulatorBackend | str | None = None,
    ) -> float:
        """Per-term reference: rebuild and re-simulate the chain without the table.

        This is the un-memoized evaluation the table replaces: every
        fragment instance the term touches is constructed and simulated
        afresh.  The simulators are deterministic, so the result is
        bitwise identical to :meth:`term_probability_plus` — the tests and
        the ``bench_reconstruct`` benchmark assert exactly that.

        Parameters
        ----------
        assignment:
            The per-cut term index choice.
        backend:
            Execution backend (name or instance); ``None`` selects serial.

        Returns
        -------
        float
            The term's exact ``p₊``.
        """
        exec_backend = resolve_backend(backend)
        fresh: list[FragmentInstance] = []
        boundaries: list[int] = [0]
        for layout in self._layouts:
            out_config = tuple(assignment[cut] for cut in layout.out_cuts)
            for in_config in self._term_in_configs(layout, assignment):
                fresh.append(self._build_instance(layout, in_config, out_config))
            boundaries.append(len(fresh))
        distributions = exec_backend.exact_distributions(
            [instance.circuit for instance in fresh]
        )
        chain = []
        for index in range(len(self._layouts)):
            start, stop = boundaries[index], boundaries[index + 1]
            stacked = np.stack(
                [
                    _conditional_tensor(instance, distribution)
                    for instance, distribution in zip(
                        fresh[start:stop], distributions[start:stop]
                    )
                ]
            )
            chain.append(stacked)
        return chain_probability_plus(chain)

    # -- reconstruction ----------------------------------------------------------------

    def contract_exact_value(self) -> float:
        """Contract the full κⁿ summation into one pass over the fragment chain.

        Instead of materialising every product term, the chain state tracks
        a signed weight per (term choice, message value) configuration of
        the current slice; each fragment folds in its parity-signed
        transfer vectors (:func:`~repro.qpd.contraction.signed_transfer`)
        and each outgoing cut folds in its term coefficients at the sender
        side.  The cost is linear in the number of fragments — per-slice
        configuration counts replace the mⁿ term product — yet the result
        equals ``Σ_t c_t (2 p₊(t) − 1)`` exactly.

        Returns
        -------
        float
            The exactly reconstructed expectation value.
        """
        if self._tensors is None:
            raise CuttingError("instance table has not been evaluated yet")
        state: dict[tuple, float] = {(): 1.0}
        for layout in self._layouts:
            out_options = [range(len(self._splits[cut])) for cut in layout.out_cuts]
            new_state: dict[tuple, float] = {}
            for in_config in sorted(state):
                weight = state[in_config]
                for out_choice in product(*out_options):
                    out_config = tuple(out_choice)
                    coefficient = 1.0
                    for cut, term_index in zip(layout.out_cuts, out_config):
                        coefficient *= self._splits[cut][term_index].term.coefficient
                    signed = signed_transfer(
                        self._tensors[(layout.index, in_config, out_config)][np.newaxis]
                    )[0]
                    message_options = [
                        list(
                            product(
                                (0, 1),
                                repeat=self._splits[cut][term_index].num_message_bits,
                            )
                        )
                        for cut, term_index in zip(layout.out_cuts, out_config)
                    ]
                    for index, bits_choice in enumerate(product(*message_options)):
                        key = tuple(
                            (term_index, bits)
                            for term_index, bits in zip(out_config, bits_choice)
                        )
                        contribution = weight * coefficient * signed[index]
                        new_state[key] = new_state.get(key, 0.0) + contribution
            state = new_state
        return float(state[()])

    def summed_exact_value(self) -> float:
        """Reference κⁿ summation ``Σ_t c_t (2 p₊(t) − 1)`` over the memoized chains."""
        value = 0.0
        for assignment in self.term_assignments():
            mean = 2.0 * self.term_probability_plus(assignment) - 1.0
            value += self.term_coefficient(assignment) * mean
        return float(value)


def _conditional_tensor(
    instance: FragmentInstance, distribution: dict[str, float]
) -> np.ndarray:
    """Fold one instance's outcome distribution into its conditional tensor.

    Bitstrings are accumulated in sorted order, so the tensor is independent
    of the backend's distribution-dict insertion order — a precondition for
    the cross-backend bitwise identity of the dedup path.
    """
    num_configs = 2 ** len(instance.message_clbits)
    tensor = np.zeros((num_configs, 2))
    for bitstring in sorted(distribution):
        probability = distribution[bitstring]
        config = 0
        for clbit in instance.message_clbits:
            config = (config << 1) | int(bitstring[clbit])
        parity = sum(int(bitstring[clbit]) for clbit in instance.parity_clbits) % 2
        tensor[config, parity] += probability
    return tensor


def build_instance_table(
    circuit: QuantumCircuit,
    plan: MultiCutPlan,
    protocols: Sequence[WireCutProtocol],
    observable: str | PauliString,
) -> InstanceTable:
    """Enumerate the unique fragment instances of a full-slice plan.

    Parameters
    ----------
    circuit:
        The original (uncut) circuit.
    plan:
        The multi-cut plan; must be full-slice
        (see :func:`instance_support_reason`).
    protocols:
        One splittable protocol per cut location.
    observable:
        Pauli observable over the circuit's logical qubits.

    Returns
    -------
    InstanceTable
        The (not yet evaluated) instance table.

    Raises
    ------
    CuttingError
        When the plan or protocols cannot be served by instance dedup; the
        message names the obstruction so callers can fall back to the
        monolithic path.
    """
    return InstanceTable(circuit, plan, protocols, observable)
