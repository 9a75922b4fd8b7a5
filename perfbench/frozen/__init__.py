"""A frozen copy of particlesim's model code, used only as a speed reference.

``tensor.py``, ``nn.py``, ``attention.py``, ``gnn.py`` and ``particles.py``
are byte-for-byte copies of ``src/particlesim/`` at commit 094bc2d.  They
must never be edited: reference.py times fixed work on them, in the same
process and between the units of the code under test, to measure how fast
the machine runs this kind of code at that moment (see reference.py).
"""
