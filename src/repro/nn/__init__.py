"""Feedforward neural networks with numeric and symbolic semantics."""

from .activations import (
    LINEAR,
    LOGSIG,
    RELU,
    TANSIG,
    Activation,
    available_activations,
    get_activation,
)
from .network import FeedforwardNetwork, Layer, controller_network
from .serialization import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)

__all__ = [
    "Activation",
    "FeedforwardNetwork",
    "LINEAR",
    "LOGSIG",
    "Layer",
    "RELU",
    "TANSIG",
    "available_activations",
    "controller_network",
    "get_activation",
    "load_network",
    "network_from_dict",
    "network_to_dict",
    "save_network",
]
