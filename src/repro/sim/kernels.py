"""The cuckoo victim-way LCG jump-ahead (DESIGN.md 6.6).

:func:`lcg_jump` lets the fused MSHR retry spin commit thousands of
guaranteed-failing victim-way draws in O(log n).
"""

#: Victim-way LCG constants (match CuckooMshrFile's per-kick advance).
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def kernels_mode():
    """The kernel mode components are built in: always ``'scalar'``.

    Only one implementation exists.  The function stays because
    external harnesses (the ``simbench`` benchmark records it in its
    report's strategy block) import it.
    """
    return "scalar"


def lcg_jump(seed, n):
    """State after *n* draws of the victim-way LCG, in O(log n).

    Binary jump-ahead (Brown's algorithm): composing the affine map
    ``x -> A*x + C`` with itself squares ``A`` and folds the offset as
    ``C -> C * (A + 1)``, so any draw count is a walk over the bits of
    *n*.  Bit-identical to *n* scalar advances -- this is how a fused
    retry run on a *full* MSHR table commits thousands of guaranteed
    failing draws without generating any of them.
    """
    a, c = _LCG_A, _LCG_C
    ja, jc = 1, 0  # identity map, composed up to f^n
    while n > 0:
        if n & 1:
            # Apply the current power after the accumulated jump.
            ja = (ja * a) & _LCG_MASK
            jc = (jc * a + c) & _LCG_MASK
        c = (c * (a + 1)) & _LCG_MASK
        a = (a * a) & _LCG_MASK
        n >>= 1
    return (seed * ja + jc) & _LCG_MASK
