"""Coalesced memory-transaction counting."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpusim.config import KEPLER_K40, XEON_CPU
from repro.gpusim.memory import MemoryModel


@pytest.fixture
def mem():
    return MemoryModel(KEPLER_K40)


class TestStreaming:
    def test_exact_multiple(self, mem):
        assert mem.stream_transactions(256) == 2

    def test_rounds_up(self, mem):
        assert mem.stream_transactions(129) == 2

    def test_zero_bytes(self, mem):
        assert mem.stream_transactions(0) == 0

    def test_negative_rejected(self, mem):
        with pytest.raises(SimulationError):
            mem.stream_transactions(-1)


class TestAdjacency:
    def test_each_list_rounds_up_separately(self, mem):
        # 8-byte entries, 16 per 128 B line: degrees 1, 16, 17
        degrees = np.asarray([1, 16, 17])
        assert mem.adjacency_transactions(degrees) == 1 + 1 + 2

    def test_zero_degree_costs_nothing(self, mem):
        assert mem.adjacency_transactions(np.asarray([0, 0])) == 0

    def test_empty(self, mem):
        assert mem.adjacency_transactions(np.asarray([], dtype=np.int64)) == 0


class TestCoalescing:
    def test_contiguous_warp_coalesces_to_one(self, mem):
        # 32 threads reading 32 contiguous 4-byte entries = 128 B = 1 txn.
        txns, requests = mem.coalesced_transactions(np.arange(32), 4)
        assert requests == 1
        assert txns == 1

    def test_scattered_warp_needs_many(self, mem):
        # Strided by 64 entries of 4 bytes -> every access in its own line.
        txns, requests = mem.coalesced_transactions(np.arange(32) * 64, 4)
        assert requests == 1
        assert txns == 32

    def test_eight_byte_entries_coalesce_to_two_lines(self, mem):
        txns, _ = mem.coalesced_transactions(np.arange(32), 8)
        assert txns == 2  # 32 * 8 B = 256 B

    def test_partial_warp(self, mem):
        txns, requests = mem.coalesced_transactions(np.arange(10), 4)
        assert requests == 1
        assert txns == 1

    def test_empty_stream(self, mem):
        assert mem.coalesced_transactions(np.asarray([], dtype=np.int64), 4) == (0, 0)

    def test_invalid_element_size(self, mem):
        with pytest.raises(SimulationError):
            mem.coalesced_transactions(np.arange(4), 0)

    def test_cpu_warp_of_one(self):
        cpu = MemoryModel(XEON_CPU)
        txns, requests = cpu.coalesced_transactions(np.arange(10), 8)
        assert txns == 10
        assert requests == 10

    def test_duplicate_addresses_in_warp_coalesce(self, mem):
        txns, _ = mem.coalesced_transactions(np.zeros(32, dtype=np.int64), 4)
        assert txns == 1


class TestDerived:
    def test_status_group_transactions_jsa(self, mem):
        # 128 one-byte statuses fit one 128 B line.
        assert mem.status_group_transactions(10, 128) == 10
        # 256 bytes need two lines per vertex.
        assert mem.status_group_transactions(10, 256) == 20
        # Small groups still cost one transaction.
        assert mem.status_group_transactions(10, 4) == 10
