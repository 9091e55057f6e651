"""``scipy.special`` on first use: ``_special.ndtr`` imports it once and keeps
the name in this module's globals, so later reads skip ``__getattr__``; the
discrete path never reads one and runs without scipy loaded (PEP 562)."""


def __getattr__(name):
    import scipy.special

    value = globals()[name] = getattr(scipy.special, name)
    return value
