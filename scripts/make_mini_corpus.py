"""Regenerate the bundled demo corpus under src/textmath/data/mini_corpus/.

Three themed subject classes, twenty documents each, rendered as html_math
markup plus a manifest. Deterministic: rerunning produces identical bytes.
"""
from pathlib import Path

from textmath.synth import generate_synthetic_corpus, write_corpus_markup

MATH_WORDS = [
    "algebra", "topology", "manifold", "theorem", "lemma", "proof", "group",
    "ring", "field", "module", "functor", "category", "homology", "kernel",
    "ideal", "lattice", "polynomial", "spectrum", "measure", "integral",
    "derivative", "convergence", "compact", "metric", "norm", "tensor",
    "eigenvalue", "matrix", "subspace", "isomorphism",
]
CS_WORDS = [
    "algorithm", "complexity", "runtime", "compiler", "parser", "automaton",
    "heuristic", "database", "query", "index", "cache", "thread", "scheduler",
    "network", "protocol", "packet", "encryption", "hashing", "graph",
    "traversal", "recursion", "stack", "queue", "pointer", "memory",
    "latency", "throughput", "benchmark", "opcode", "bytecode",
]
PHYSICS_WORDS = [
    "quantum", "photon", "electron", "neutrino", "boson", "fermion",
    "entanglement", "relativity", "spacetime", "curvature", "gravity",
    "momentum", "inertia", "plasma", "magnetism", "voltage", "current",
    "resistance", "radiation", "spectroscopy", "interference", "diffraction",
    "oscillator", "pendulum", "thermodynamics", "entropy", "enthalpy",
    "velocity", "acceleration", "friction",
]

IDENTIFIERS = ["x", "y", "t", "n", "k", "E", "m", "f"]


def write(out_dir: Path) -> Path:
    """Write the demo corpus's markup and manifest under ``out_dir``; return
    the manifest path."""
    corpus = generate_synthetic_corpus(
        n_classes=3,
        docs_per_class=20,
        vocab_per_class=30,
        shared_identifiers=len(IDENTIFIERS),
        seed=20240817,
        tokens_per_doc=(30, 60),
        formulas_per_doc=(2, 6),
        labels=["math", "cs", "physics"],
        class_vocabularies=[MATH_WORDS, CS_WORDS, PHYSICS_WORDS],
        identifier_pool=IDENTIFIERS,
    )
    return write_corpus_markup(corpus, out_dir, "html_math")


def main() -> None:
    out_dir = Path(__file__).resolve().parents[1] / "src" / "textmath" / "data" / "mini_corpus"
    print(f"wrote the demo corpus, manifest {write(out_dir)}")


if __name__ == "__main__":
    main()
