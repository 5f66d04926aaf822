"""Simulated device configurations.

Presets model the hardware the paper evaluated on: NVIDIA Kepler K40
(local cluster) and K20 (Stampede), plus the Xeon E5-2683 CPU used for
the CPU-iBFS and MS-BFS comparisons in sections 7 and 8.6.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import SimulationError


@dataclass(frozen=True)
class DeviceConfig:
    """Hardware parameters of one simulated device.

    Attributes
    ----------
    name:
        Human-readable device name.
    is_gpu:
        Distinguishes the SIMT cost model from the CPU cost model
        (context-switch overhead, no zero-cost warp scheduling).
    num_sms:
        Streaming multiprocessors (CPU: sockets*cores treated alike).
    cores:
        Total scalar cores (K40: 2880).
    clock_hz:
        Core clock.
    warp_size:
        Threads per warp (SIMT width); CPUs use 1.
    cta_size:
        Threads per cooperative thread array (block); the paper's
        shared-memory merge operates at this granularity.
    max_resident_threads:
        Hardware thread slots; exceeding this serializes work and is the
        source of the naive implementation's direction-switch collapse.
    global_memory_bytes:
        Device memory capacity; bounds the group size N (section 3).
    memory_bandwidth:
        Global-memory bandwidth in bytes/second.
    memory_latency_s:
        Latency floor of one dependent global access; small frontiers
        pay this instead of the bandwidth term.
    transaction_bytes:
        Size of one coalesced global-memory transaction (128 B on
        Kepler; "one global memory transaction typically fetches 16
        contiguous data entries" of 8 B each).
    instruction_throughput:
        Scalar instructions retired per second across the device.
    atomic_throughput:
        Global atomic operations per second.
    kernel_launch_overhead_s:
        Host-side cost of launching one kernel.
    level_sync_overhead_s:
        Cost of one device-wide synchronization (per BFS level).
    hyperq_queues:
        Concurrent kernel queues (Hyper-Q); bounds naive overlap.
    context_switch_overhead_s:
        CPU-only: cost of scheduling one software thread; GPUs have
        zero-overhead context switches (section 7).
    """

    name: str
    is_gpu: bool
    num_sms: int
    cores: int
    clock_hz: float
    warp_size: int
    cta_size: int
    max_resident_threads: int
    global_memory_bytes: int
    memory_bandwidth: float
    memory_latency_s: float
    transaction_bytes: int
    instruction_throughput: float
    atomic_throughput: float
    kernel_launch_overhead_s: float
    level_sync_overhead_s: float
    hyperq_queues: int
    context_switch_overhead_s: float

    def __post_init__(self) -> None:
        if self.warp_size <= 0 or self.transaction_bytes <= 0:
            raise SimulationError("warp_size and transaction_bytes must be positive")
        if self.transaction_bytes < 8:
            raise SimulationError(
                "transaction_bytes must hold at least one 8-byte entry; "
                f"got {self.transaction_bytes}"
            )
        if self.memory_bandwidth <= 0 or self.clock_hz <= 0:
            raise SimulationError("bandwidth and clock must be positive")
        if self.max_resident_threads <= 0:
            raise SimulationError("max_resident_threads must be positive")

    @property
    def entries_per_transaction(self) -> int:
        """8-byte vertex-id entries fetched by one coalesced transaction."""
        return self.transaction_bytes // 8

    def with_memory(self, global_memory_bytes: int) -> "DeviceConfig":
        """Copy of this config with a different memory capacity (used by
        capacity-rule tests)."""
        return replace(self, global_memory_bytes=global_memory_bytes)


#: NVIDIA Kepler K40: 15 SMs x 192 cores, 745 MHz, 12 GB, 288 GB/s.
KEPLER_K40 = DeviceConfig(
    name="NVIDIA Kepler K40",
    is_gpu=True,
    num_sms=15,
    cores=2880,
    clock_hz=745e6,
    warp_size=32,
    cta_size=256,
    max_resident_threads=15 * 2048,
    global_memory_bytes=12 * 1024**3,
    memory_bandwidth=288e9,
    memory_latency_s=1e-7,
    transaction_bytes=128,
    instruction_throughput=2880 * 745e6,
    atomic_throughput=120e9,
    kernel_launch_overhead_s=1e-7,
    level_sync_overhead_s=4e-8,
    hyperq_queues=32,
    context_switch_overhead_s=0.0,
)

#: NVIDIA Kepler K20 (Stampede): 13 SMs x 192 cores, 706 MHz, 5 GB, 208 GB/s.
KEPLER_K20 = DeviceConfig(
    name="NVIDIA Kepler K20",
    is_gpu=True,
    num_sms=13,
    cores=2496,
    clock_hz=706e6,
    warp_size=32,
    cta_size=256,
    max_resident_threads=13 * 2048,
    global_memory_bytes=5 * 1024**3,
    memory_bandwidth=208e9,
    memory_latency_s=1e-7,
    transaction_bytes=128,
    instruction_throughput=2496 * 706e6,
    atomic_throughput=100e9,
    kernel_launch_overhead_s=1e-7,
    level_sync_overhead_s=4e-8,
    hyperq_queues=32,
    context_switch_overhead_s=0.0,
)

#: Intel Xeon E5-2683-class host running 64 software threads: far fewer
#: hardware threads, lower random-access bandwidth, and a real context
#: switch cost -- the differences section 7 calls out.
XEON_CPU = DeviceConfig(
    name="Intel Xeon E5-2683",
    is_gpu=False,
    num_sms=2,
    cores=28,
    clock_hz=2.0e9,
    warp_size=1,
    cta_size=1,
    max_resident_threads=56,
    global_memory_bytes=256 * 1024**3,
    memory_bandwidth=68e9,
    memory_latency_s=90e-9,
    transaction_bytes=64,
    instruction_throughput=28 * 2.0e9,
    atomic_throughput=1.2e9,
    kernel_launch_overhead_s=0.0,
    level_sync_overhead_s=1e-7,
    hyperq_queues=1,
    context_switch_overhead_s=6e-8,
)
