"""Sensitivity-driven community partitioning and distributed voltage
control for meshed distribution networks with distributed generators."""

__version__ = "0.1.0"
