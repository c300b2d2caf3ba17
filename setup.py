from setuptools import find_packages, setup

setup(
    name="repro-conext18-overbooking",
    version="0.2.0",
    description=(
        "Reproduction of 'Overbooking network slices through yield-driven "
        "end-to-end orchestration' (CoNEXT'18)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    # scipy >= 1.15 vendors the highspy bindings repro.core.lpsolver drives.
    install_requires=["numpy", "scipy>=1.15"],
    entry_points={
        "console_scripts": [
            "repro-experiments = repro.experiments.cli:main",
        ]
    },
)
