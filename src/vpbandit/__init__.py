"""Adversarial multi-play bandits with variable plays, and the
pursuit-evasion game built on them."""

__version__ = "0.1.0"
