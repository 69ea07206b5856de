"""Setuptools entry point (kept for environments without PEP 517 tooling)."""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """``repro.__version__``, read from the source without importing it."""
    init = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
    match = re.search(r'^__version__ = "([^"]+)"', init.read_text(), re.M)
    if match is None:
        raise RuntimeError(f"no __version__ in {init}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=(
        "SARIS reproduction: stencil acceleration with indirect stream "
        "registers on a simulated Snitch RISC-V cluster"
    ),
    author="SARIS reproduction authors",
    license="Apache-2.0",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.snitch.native": ["engine.c"]},
    # The native engine binds through the standard library's ctypes and
    # builds with the host C compiler; without a compiler, everything runs
    # on the bit-identical Python engine.
    install_requires=["numpy>=1.21"],
    extras_require={
        "dev": ["pytest>=7.0", "hypothesis>=6.0"],
    },
)
