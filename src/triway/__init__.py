"""Capacity-analysis toolkit for the three-user full-duplex Gaussian network; import its modules."""

from ._version import __version__

__all__ = ["__version__"]
