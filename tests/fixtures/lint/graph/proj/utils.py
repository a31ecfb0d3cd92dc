"""Helpers the graph rule must see through (none are reported here)."""

import numpy as np


def slow_io(path):
    """Blocks on file I/O — flagged only at serving-side call sites."""
    with open(path) as fh:
        return fh.read()


def save_helper(x, path):
    """Raw persistence outside the funnels (a lexical RPL009 finding)."""
    np.save(path, x)
