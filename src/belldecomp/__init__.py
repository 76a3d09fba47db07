"""Bell-basis decomposition of multi-qubit teleportation through general two-qubit channels.

The receiver's post-measurement state is predicted as a tensor product of
2x2 per-pair blocks applied to the input amplitudes, and every prediction
can be cross-checked against a brute-force full state-vector oracle.

Each library module's ``__all__`` is its share of the package API; the
package re-exports exactly those names and ``__version__``.
"""

from .channel import *
from .decomposition import *
from .oracle import *
from .protocol import *
from .tensor import *
from . import channel, decomposition, oracle, protocol, tensor

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += channel.__all__
__all__ += decomposition.__all__
__all__ += oracle.__all__
__all__ += protocol.__all__
__all__ += tensor.__all__
