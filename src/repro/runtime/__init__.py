"""repro.runtime — the traversal substrates behind every dispatch layer.

Four traversal substrates (serial, executor, partitioned, stream) sit
behind one :class:`Substrate` protocol with capability flags; one
:func:`make_substrate` factory builds the substrate a
:class:`SubstrateSpec` names, and owns capability-driven validation
and epoch swap-on-mutate.  The serving layer, the executor worker
loop, and the CLI all build their backend through that factory
instead of wiring engines by hand.
"""

from repro.runtime.spec import SUBSTRATE_NAMES, SubstrateSpec, engine_key
from repro.runtime.substrates import (
    CAPABILITY_FLAGS,
    ExecutorSubstrate,
    PartitionedSubstrate,
    SerialSubstrate,
    StreamSubstrate,
    Substrate,
    make_substrate,
)

__all__ = [
    "CAPABILITY_FLAGS",
    "ExecutorSubstrate",
    "PartitionedSubstrate",
    "SUBSTRATE_NAMES",
    "SerialSubstrate",
    "StreamSubstrate",
    "Substrate",
    "SubstrateSpec",
    "engine_key",
    "make_substrate",
]
