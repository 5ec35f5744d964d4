"""Unit tests for link and cluster specifications."""

import dataclasses
import math

import pytest

from repro.network.fabric import ClusterSpec, LinkSpec
from repro.network.presets import ETHERNET_10G, PCIE_3


class TestLinkSpec:
    def test_beta_is_inverse_bandwidth(self):
        link = LinkSpec("l", latency=1e-5, bandwidth=2e9)
        assert link.beta == pytest.approx(5e-10)

    def test_transfer_time(self):
        link = LinkSpec("l", latency=1e-5, bandwidth=1e9)
        assert link.transfer_time(1e6) == pytest.approx(1e-5 + 1e-3)

    def test_transfer_time_zero_bytes_is_latency(self):
        link = LinkSpec("l", latency=2e-5, bandwidth=1e9)
        assert link.transfer_time(0) == pytest.approx(2e-5)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec("l", latency=0, bandwidth=1e9).transfer_time(-1)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec("l", latency=-1e-6, bandwidth=1e9)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec("l", latency=0, bandwidth=0)

    @pytest.mark.parametrize("field", ["latency", "bandwidth"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            LinkSpec("l", **{"latency": 1e-5, "bandwidth": 1e9, field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(ETHERNET_10G, **{field: value})

    def test_scaled_link(self):
        doubled = ETHERNET_10G.scaled(bandwidth_factor=2.0)
        assert doubled.bandwidth == pytest.approx(2 * ETHERNET_10G.bandwidth)
        assert doubled.latency == ETHERNET_10G.latency


class TestClusterSpec:
    def _cluster(self, nodes=4, gpus=2) -> ClusterSpec:
        return ClusterSpec(
            name="test", nodes=nodes, gpus_per_node=gpus,
            inter_link=ETHERNET_10G, intra_link=PCIE_3,
        )

    def test_world_size(self):
        assert self._cluster(nodes=4, gpus=2).world_size == 8

    def test_multi_node_flag(self):
        assert self._cluster(nodes=2).multi_node
        assert not self._cluster(nodes=1).multi_node

    def test_flat_alpha_beta_uses_bottleneck(self):
        cluster = self._cluster()
        alpha, beta = cluster.flat_alpha_beta()
        assert alpha == max(ETHERNET_10G.alpha, PCIE_3.alpha)
        assert beta == max(ETHERNET_10G.beta, PCIE_3.beta)

    def test_single_node_uses_intra_link(self):
        cluster = self._cluster(nodes=1)
        alpha, beta = cluster.flat_alpha_beta()
        assert alpha == PCIE_3.alpha
        assert beta == PCIE_3.beta

    def test_with_nodes(self):
        scaled = self._cluster(nodes=4).with_nodes(16)
        assert scaled.world_size == 32
        assert scaled.gpus_per_node == 2

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            self._cluster(nodes=0)
        with pytest.raises(ValueError):
            self._cluster(gpus=0)

    def test_describe_mentions_world_size(self):
        assert "P=8" in self._cluster().describe()
