"""Simulator for cryogenic two-stage amplified image-charge readout of
Rydberg-state electrons on liquid helium."""

__version__ = "0.1.0"
