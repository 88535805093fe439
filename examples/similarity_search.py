"""Similarity search: "find clips like this" over the feature store.

This example builds the synthetic "deer" dataset and uses the
``VOCALExplore.search`` API to retrieve the clips most similar to a query.
A query is either a clip, whose feature is extracted on demand, or a raw
feature vector.  Both run the same exact nearest-neighbour scan over every
vector stored for the current extractor, and every search charges simulated
T_s-style latency through the scheduler.

Run with::

    python examples/similarity_search.py
"""

from __future__ import annotations

from repro import VOCALExplore, VocalExploreConfig
from repro.datasets import build_dataset


def show(title: str, hits) -> None:
    print(title)
    for rank, hit in enumerate(hits, start=1):
        print(
            f"  {rank}. video {hit.vid:3d} [{hit.start:5.2f}s - {hit.end:5.2f}s] "
            f"sq-distance {hit.distance:8.2f}"
        )
    print()


def main() -> None:
    dataset = build_dataset("deer", seed=0)
    vocal = VOCALExplore.for_dataset(dataset, config=VocalExploreConfig(seed=0))
    query = (dataset.train_corpus.vids()[0], 0.0, 1.0)
    print(
        f"Query: video {query[0]} [{query[1]:.1f}s, {query[2]:.1f}s] "
        f"of {dataset.name!r} ({len(dataset.train_corpus)} videos)\n"
    )

    # A clip query: the query clip itself is left out of its own results.
    hits = vocal.search(query, k=5)
    show(
        f"clip query, {vocal.current_feature()} features — visible latency "
        f"{vocal.cumulative_visible_latency():.2f}s",
        hits,
    )

    # A vector query, e.g. a stored clip's own embedding — useful for "more
    # like the clip I just labeled" loops.  The clip itself ranks first.
    clips, vectors = vocal.session.storage.features.all_vectors(vocal.current_feature())
    show(f"vector query (embedding of {clips[0]}):", vocal.search(vectors[0], k=3))

    print("Every search charged T_s-style latency through the scheduler, so")
    print("similarity exploration is accounted like every other user-facing call.")


if __name__ == "__main__":
    main()
