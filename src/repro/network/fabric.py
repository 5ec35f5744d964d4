"""Link and cluster topology descriptions.

A :class:`ClusterSpec` mirrors the paper's testbed shape: ``nodes``
machines with ``gpus_per_node`` GPUs each, an intra-node interconnect
(PCIe or NVLink) and an inter-node network (10GbE or 100Gb InfiniBand).

Flat collectives (the NCCL default ring spanning all GPUs) are paced by
the *bottleneck* link, so :meth:`ClusterSpec.flat_alpha_beta` reports
the worst latency and worst bandwidth across the links a flat ring
traverses.  Hierarchical algorithms query the intra- and inter-node
links separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["LinkSpec", "ClusterSpec"]


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point link in the alpha–beta model.

    Attributes:
        name: human-readable label ("10GbE", "NVLink", ...).
        latency: per-message startup cost **alpha**, in seconds.  For
            calibrated presets this includes the software stack (NCCL
            kernel launch, protocol) overhead, which is why it is much
            larger than the wire latency.
        bandwidth: sustained point-to-point bandwidth in **bytes/s**;
            ``beta = 1 / bandwidth`` is the per-byte transmission time.
            This is the bandwidth NCCL achieves at the link's calibrated
            ``channels`` count under the Simple protocol — the baseline
            the protocol-aware model's factors multiply.
        channels: the NCCL channel count that saturates the link (and at
            which ``latency``/``bandwidth`` were calibrated).  The
            protocol-aware model stripes across fewer channels for a
            latency/bandwidth trade-off; the plain model ignores it.
        protocols: protocol tiers the link's transport can run.  Socket
            transports (Ethernet) are Simple-only; RDMA and NVLink
            fabrics also run LL/LL128 (see
            :mod:`repro.network.protocol`).
    """

    name: str
    latency: float
    bandwidth: float
    channels: int = 1
    protocols: tuple[str, ...] = ("simple",)

    def __post_init__(self):
        # ``nan < 0`` is false: a sign check alone would let NaN through.
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise ValueError(
                f"latency must be finite and non-negative, got {self.latency}"
            )
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(
                f"bandwidth must be finite and positive, got {self.bandwidth}"
            )
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if not self.protocols or "simple" not in self.protocols:
            raise ValueError(
                f"protocols must include 'simple', got {self.protocols!r}"
            )

    @property
    def beta(self) -> float:
        """Per-byte transmission time in s/byte."""
        return 1.0 / self.bandwidth

    @property
    def alpha(self) -> float:
        """Per-message latency in seconds (alias of :attr:`latency`)."""
        return self.latency

    def transfer_time(self, nbytes: float) -> float:
        """Point-to-point time for one message of ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        return self.latency + nbytes * self.beta

    def scaled(self, latency_factor: float = 1.0, bandwidth_factor: float = 1.0) -> "LinkSpec":
        """A derived link with scaled latency and/or bandwidth."""
        return LinkSpec(
            name=f"{self.name}(x{latency_factor:g},x{bandwidth_factor:g})",
            latency=self.latency * latency_factor,
            bandwidth=self.bandwidth * bandwidth_factor,
            channels=self.channels,
            protocols=self.protocols,
        )


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous multi-node GPU cluster.

    Attributes:
        name: label used in reports ("64xGPU/10GbE").
        nodes: number of machines.
        gpus_per_node: GPUs per machine.
        inter_link: network link between machines.
        intra_link: interconnect between GPUs of one machine.
    """

    name: str
    nodes: int
    gpus_per_node: int
    inter_link: LinkSpec
    intra_link: LinkSpec

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.gpus_per_node < 1:
            raise ValueError(f"gpus_per_node must be >= 1, got {self.gpus_per_node}")

    @property
    def world_size(self) -> int:
        """Total number of GPU workers."""
        return self.nodes * self.gpus_per_node

    @property
    def multi_node(self) -> bool:
        """Whether a flat collective must cross the inter-node network."""
        return self.nodes > 1

    def flat_alpha_beta(self) -> tuple[float, float]:
        """(alpha, beta) governing a flat ring over all world_size GPUs.

        A flat ring crosses both intra- and inter-node hops; it is paced
        by the slowest hop in both latency and bandwidth, which on the
        paper's testbed is the inter-node network.
        """
        if not self.multi_node:
            return self.intra_link.alpha, self.intra_link.beta
        alpha = max(self.inter_link.alpha, self.intra_link.alpha)
        beta = max(self.inter_link.beta, self.intra_link.beta)
        return alpha, beta

    def degraded(
        self,
        inter_alpha: float = 1.0,
        inter_beta: float = 1.0,
        intra_alpha: float = 1.0,
        intra_beta: float = 1.0,
    ) -> "ClusterSpec":
        """Same topology over degraded links.

        Factors multiply the alpha-beta *costs*: ``inter_beta=2`` halves
        the inter-node bandwidth.  ``(1, 1, 1, 1)`` returns ``self``
        unchanged, so healthy cost models are shared, not copied.
        """
        if (inter_alpha, inter_beta, intra_alpha, intra_beta) == (1.0, 1.0, 1.0, 1.0):
            return self
        return replace(
            self,
            name=f"{self.name}[degraded]",
            inter_link=self.inter_link.scaled(inter_alpha, 1.0 / inter_beta),
            intra_link=self.intra_link.scaled(intra_alpha, 1.0 / intra_beta),
        )

    def with_nodes(self, nodes: int) -> "ClusterSpec":
        """Same fabric, different node count (for scaling sweeps)."""
        name = f"{nodes}x{self.gpus_per_node}:{self.inter_link.name}"
        return replace(self, nodes=nodes, name=name)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.nodes} nodes x {self.gpus_per_node} GPUs "
            f"(inter={self.inter_link.name}, intra={self.intra_link.name}, "
            f"P={self.world_size})"
        )
