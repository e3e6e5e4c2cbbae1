"""Exact certification of state-independent contextuality sets.

The package decides whether a family of rank-one projectors forms a
state-independent contextuality set, emits the witnessing inequality,
and provides the supporting graph machinery: a graph6 codec, exact
chromatic and fractional-chromatic numbers, a census of connected
square-free graphs, and a numerical search for orthogonal
representations of a given graph in a given dimension.

`import siccert` loads none of its submodules.  A submodule is imported
the first time one of its public names, or the submodule itself, is
read from the package.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule and the public names it defines
_PUBLIC = {
    "canon": "automorphism_orbits canonical_graph canonical_key canonicalize",
    "certify": """Inequality ProjectorSet SicCertificate certify_sic
        emit_inequality noncontextual_bound orthogonality_graph
        parse_vector_file quantum_value quantum_value_floor
        write_vector_file""",
    "coloring": """chi_greater_than chromatic_number
        fractional_chromatic_number rh_sic_graph_test
        sic_necessary_conditions""",
    "enumeration": "brute_force_enumerate enumerate_square_free_connected",
    "exact": "LinearProgram lp_solve_exact psd_check_exact",
    "graphs": """CapacityError Graph Graph6Error complement cone
        encode_graph6 induced_subgraph is_connected is_square_free
        maximal_independent_sets parse_graph6""",
    "realize": "RealizationResult find_realization verify_realization",
    "runner": "",
}
_HOME = {name: module for module, names in _PUBLIC.items()
         for name in names.split()}

__all__ = sorted([*_HOME, "fixture_path"]) + ["__version__"]


def fixture_path(name: str):
    """Path to a bundled data file (vector files, graph6 lists)."""
    from importlib.resources import files

    return files(__name__) / "fixtures" / name


def __getattr__(name: str):
    """Import a submodule, or the submodule of a public name, on first
    use; the name is then bound here and read without this call."""
    if name in _PUBLIC:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *_HOME})
