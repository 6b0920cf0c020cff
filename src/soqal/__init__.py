"""Desk-scale active-learning simulator with a learned ask-or-self-label gate."""

__version__ = "0.1.2"
