"""Setuptools entry point, and the package's only metadata.

There is no ``pyproject.toml``: a plain ``setup.py`` is what lets
``pip install -e .`` work on minimal offline environments whose setuptools
predates native PEP 660 editable-wheel support (no ``wheel`` package
installed).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Raster join: rasterization-based real-time spatial aggregation "
        "over arbitrary polygons (reproduction of Tzirita Zacharatou et "
        "al., VLDB 2017)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.23", "scipy>=1.9"],
    extras_require={"dev": ["pytest>=7", "pytest-benchmark>=4", "hypothesis>=6"]},
)
