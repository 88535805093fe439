"""Similarity search: "find clips like this" over the feature store.

This example builds the synthetic "deer" dataset and uses the new
``VOCALExplore.search`` API to retrieve the clips most similar to a query
clip.  It runs the same query through both vector-index backends
(``exact`` — the brute-force oracle, and ``ivf-flat`` — inverted lists behind
a k-means coarse quantizer) and prints how much simulated latency each search charged, illustrating the
recall/latency trade-off the index subsystem exposes.

Run with::

    python examples/similarity_search.py
"""

from __future__ import annotations

from repro import IndexConfig, VOCALExplore, VocalExploreConfig
from repro.datasets import build_dataset


def run_backend(dataset, backend: str, query, k: int = 5):
    """Fresh session per backend so each run charges its own latency."""
    config = VocalExploreConfig(seed=0).with_updates(index=IndexConfig(backend=backend))
    vocal = VOCALExplore.for_dataset(dataset, config=config)
    hits = vocal.search(query, k=k)
    return vocal, hits


def main() -> None:
    dataset = build_dataset("deer", seed=0)
    query = (dataset.train_corpus.vids()[0], 0.0, 1.0)
    print(
        f"Query: video {query[0]} [{query[1]:.1f}s, {query[2]:.1f}s] "
        f"of {dataset.name!r} ({len(dataset.train_corpus)} videos)\n"
    )

    exact_hits = None
    for backend in ("exact", "ivf-flat"):
        vocal, hits = run_backend(dataset, backend, query)
        if backend == "exact":
            exact_hits = {(h.vid, h.start, h.end) for h in hits}
            agreement = ""
        else:
            found = {(h.vid, h.start, h.end) for h in hits}
            overlap = len(found & exact_hits) / max(1, len(exact_hits))
            agreement = f"  (agrees with exact on {overlap:.0%} of hits)"
        print(f"{backend} index — visible latency "
              f"{vocal.cumulative_visible_latency():.2f}s{agreement}")
        for rank, hit in enumerate(hits, start=1):
            print(
                f"  {rank}. video {hit.vid:3d} [{hit.start:5.2f}s - {hit.end:5.2f}s] "
                f"sq-distance {hit.distance:8.2f}"
            )
        print()

    # The search API also accepts a raw feature vector, e.g. a stored clip's
    # own embedding — useful for "more like the clip I just labeled" loops.
    vocal, __ = run_backend(dataset, "exact", query, k=3)
    clips, vectors = vocal.session.storage.features.all_vectors(vocal.current_feature())
    vector_hits = vocal.search(vectors[0], k=3)
    print(f"vector query (embedding of {clips[0]}):")
    for rank, hit in enumerate(vector_hits, start=1):
        print(f"  {rank}. video {hit.vid:3d} [{hit.start:5.2f}s - {hit.end:5.2f}s] "
              f"sq-distance {hit.distance:8.2f}")
    print("\nEvery search charged T_s-style latency through the scheduler, so")
    print("similarity exploration is accounted like every other user-facing call.")


if __name__ == "__main__":
    main()
