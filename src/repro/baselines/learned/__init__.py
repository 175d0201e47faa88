"""Learning-based baseline generators on the NumPy substrate."""

from .condgen import CondGenR
from .deepgmg import DeepGMG
from .gran import GRANLite
from .graphrnn import GraphRNNS, bfs_bandwidth, bfs_order
from .netgan import NetGAN, sample_random_walks
from .netgan_adversarial import NetGANAdversarial
from .sbmgnn import SBMGNN
from .vgae import VGAE, Graphite

__all__ = [
    "VGAE",
    "Graphite",
    "SBMGNN",
    "DeepGMG",
    "GRANLite",
    "GraphRNNS",
    "bfs_order",
    "bfs_bandwidth",
    "NetGAN",
    "NetGANAdversarial",
    "sample_random_walks",
    "CondGenR",
]
