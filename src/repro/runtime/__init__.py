"""repro.runtime — the substrate registry behind every dispatch layer.

Four traversal substrates (serial, executor, partitioned, stream) sit
behind one :class:`Substrate` protocol with capability flags; one
:func:`make_substrate` factory owns construction, capability-driven
validation, and epoch swap-on-mutate.  The serving layer, the
executor worker loop, and the CLI all resolve their backend through
this registry instead of wiring engines by hand.
"""

from repro.runtime.spec import SUBSTRATE_NAMES, SubstrateSpec, engine_key
from repro.runtime.substrates import (
    CAPABILITY_FLAGS,
    ExecutorSubstrate,
    PartitionedSubstrate,
    SerialSubstrate,
    StreamSubstrate,
    Substrate,
    SUBSTRATES,
    make_substrate,
)

__all__ = [
    "CAPABILITY_FLAGS",
    "ExecutorSubstrate",
    "PartitionedSubstrate",
    "SUBSTRATES",
    "SUBSTRATE_NAMES",
    "SerialSubstrate",
    "StreamSubstrate",
    "Substrate",
    "SubstrateSpec",
    "engine_key",
    "make_substrate",
]
