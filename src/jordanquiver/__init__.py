"""Exact arithmetic for Jordan types of nilpotent operators and their
propagation along stable translation quivers.

The package imports none of its modules; import each from its own path,
such as ``jordanquiver.jtypes`` or ``jordanquiver.oracle``.
"""

__version__ = "0.1.0"
