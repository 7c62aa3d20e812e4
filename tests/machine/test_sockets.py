"""The socket topology tier + interconnect model (the 2502.10320
multi-socket study's machinery)."""

import pytest

from repro.machine.cpu import SocketInterconnect
from repro.machine.topology import NumaTopology
from repro.registry import default_registry
from repro.util.errors import ConfigError


def _two_socket_topology():
    return NumaTopology(
        numa_nodes=((0, 1), (2, 3)),
        clusters=((0, 1), (2, 3)),
        sockets=((0, 1), (2, 3)),
    )


class TestSocketTopology:
    def test_single_socket_default(self):
        topo = NumaTopology(numa_nodes=((0, 1),), clusters=((0,), (1,)))
        assert topo.num_sockets == 1
        assert topo.socket_of(0) == 0
        assert topo.sockets_spanned((0, 1)) == 1

    def test_two_sockets(self):
        topo = _two_socket_topology()
        assert topo.num_sockets == 2
        assert topo.socket_of(0) == 0
        assert topo.socket_of(3) == 1
        assert topo.sockets_spanned((0, 1)) == 1
        assert topo.sockets_spanned((0, 2)) == 2

    def test_sockets_must_partition_cores(self):
        with pytest.raises(ConfigError):
            NumaTopology(
                numa_nodes=((0, 1), (2, 3)),
                clusters=((0, 1), (2, 3)),
                sockets=((0, 1),),  # cores 2, 3 unassigned
            )

    def test_numa_node_cannot_straddle_sockets(self):
        with pytest.raises(ConfigError):
            NumaTopology(
                numa_nodes=((0, 1, 2, 3),),
                clusters=((0, 1), (2, 3)),
                sockets=((0, 1), (2, 3)),
            )

    def test_socket_of_unknown_core(self):
        with pytest.raises(ConfigError):
            _two_socket_topology().socket_of(99)

    def test_lscpu_reports_sockets(self):
        assert "Socket(s):           2" in _two_socket_topology().lscpu()


class TestSocketInterconnect:
    def test_sustained_bandwidth(self):
        ic = SocketInterconnect(bandwidth_bytes=10e9, latency_ns=300.0,
                                efficiency=0.5)
        assert ic.sustained_bandwidth == pytest.approx(5e9)

    @pytest.mark.parametrize("kwargs", [
        dict(bandwidth_bytes=0, latency_ns=1.0),
        dict(bandwidth_bytes=1e9, latency_ns=-1.0),
        dict(bandwidth_bytes=1e9, latency_ns=1.0, efficiency=0.0),
        dict(bandwidth_bytes=1e9, latency_ns=1.0, efficiency=1.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SocketInterconnect(**kwargs)

    def test_multi_socket_requires_interconnect(self):
        from dataclasses import replace

        cpu = default_registry().machine("sg2042_2s")
        with pytest.raises(ConfigError, match="interconnect"):
            replace(cpu, interconnect=None)

    def test_interconnect_requires_multi_socket(self):
        from dataclasses import replace

        one = default_registry().machine("sg2042")
        two = default_registry().machine("sg2042_2s")
        with pytest.raises(ConfigError):
            replace(one, interconnect=two.interconnect)


class TestSocketMemoryTerm:
    def test_single_socket_machines_bit_identical(self):
        """The socket term must not perturb any single-socket machine:
        the paper's digests are pinned."""
        digests = {
            "sg2042": 1150852492293290706,
            "visionfive_v2": 5458569019357195070,
            "visionfive_v1": 4394393844775355962,
            "amd_rome": 1776811749281377299,
            "intel_broadwell": 286117057579522846,
            "intel_icelake": 7260075294467758154,
            "intel_sandybridge": 5719493140223172425,
        }
        from repro.suite.memo import machine_digest

        for name, expected in digests.items():
            cpu = default_registry().machine(name)
            assert machine_digest(cpu) == expected, name

    def test_spanning_sockets_cuts_per_thread_bandwidth(self):
        from repro.perfmodel.memory import dram_bandwidth_per_thread

        cpu = default_registry().machine("sg2042_2s")
        one_socket = tuple(range(64))
        two_sockets = tuple(range(128))
        share_1s = dram_bandwidth_per_thread(cpu, 0, one_socket)
        share_2s = dram_bandwidth_per_thread(cpu, 0, two_sockets)
        # Per-thread DRAM bandwidth collapses across the socket link —
        # not merely the halving expected from doubled thread count.
        assert share_2s < share_1s / 2.0

    def test_one_socket_of_the_2s_matches_plain_sg2042_shape(self):
        """Threads pinned to socket 0 never pay the interconnect term."""
        from repro.perfmodel.memory import dram_bandwidth_per_thread

        two = default_registry().machine("sg2042_2s")
        cores = tuple(range(32))
        assert two.topology.sockets_spanned(cores) == 1
        # Identical to a run with the interconnect hypothetically
        # absent: the adjustment is gated on sockets spanned.
        from repro.perfmodel.memory import _socket_adjusted_share

        share = dram_bandwidth_per_thread(two, 0, cores)
        assert _socket_adjusted_share(two, share, cores) == share

    def test_batch_and_scalar_engines_agree_on_2s(self):
        """The socket term is placement-global, so the vectorized batch
        engine and the scalar model stay bit-identical."""
        from repro.kernels.registry import get_kernel
        from repro.perfmodel.placement import reference_mode
        from repro.suite.config import RunConfig
        from repro.suite.runner import run_suite

        cpu = default_registry().machine("sg2042_2s")
        kernels = [get_kernel("TRIAD"), get_kernel("GEMM")]
        config = RunConfig(threads=128, precision="fp32", runs=1,
                           noise_sigma=0.0)
        with reference_mode():
            scalar = run_suite(cpu, config, kernels)
        batch = run_suite(cpu, config, kernels)
        for name in ("TRIAD", "GEMM"):
            assert scalar.runs[name].seconds == batch.runs[name].seconds


class TestSerializeSockets:
    def test_round_trip_preserves_sockets_and_interconnect(self):
        from repro.machine.serialize import cpu_from_dict, cpu_to_dict

        cpu = default_registry().machine("sg2042_2s")
        data = cpu_to_dict(cpu)
        assert data["topology"]["sockets"]
        assert data["interconnect"]["latency_ns"] == 350.0
        assert cpu_from_dict(data) == cpu

    def test_single_socket_omits_optional_keys(self):
        """Optional keys are omitted when default so every pre-socket
        document and digest stays byte-identical."""
        from repro.machine.serialize import cpu_to_dict

        data = cpu_to_dict(default_registry().machine("sg2042"))
        assert "sockets" not in data["topology"]
        assert "interconnect" not in data
