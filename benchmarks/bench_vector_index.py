"""Vector-index microbenchmark — ANN recall/speedup and exact-path parity.

Like ``bench_feature_store.py``, this is a plain script (not a paper figure)
pinning the properties the ``repro.index`` subsystem promises:

* **IVF recall** — recall@10 of ``IVFFlatIndex`` at its default ``nprobe``
  must be >= 0.9 against the ``ExactIndex`` oracle;
* **IVF speedup** — batched search must be >= 5x faster than ``ExactIndex``
  at 100k stored vectors (the sub-linear claim);
* **exact-path parity** — Coreset and Cluster-Margin selections routed
  through ``ExactIndex`` must be bit-identical to the pre-PR brute-force
  implementations (replicated inline below, like the row-at-a-time store in
  the feature-store benchmark);
* **end-to-end** — ``repro-vocal search`` must work from the CLI and charge
  scheduler latency.

Run with::

    PYTHONPATH=src python benchmarks/bench_vector_index.py           # full
    PYTHONPATH=src python benchmarks/bench_vector_index.py --quick   # CI smoke
"""

from __future__ import annotations

import logging
import sys
import argparse
import time

import numpy as np

from repro import telemetry
from repro.alm.acquisition import AcquisitionContext, ClusterMarginAcquisition, CoresetAcquisition
from repro.alm.clustering import _init_centroids, kmeans
from repro.index import ExactIndex, IVFFlatIndex
from repro.types import ClipSpec

logger = logging.getLogger(__name__)

K = 10


def make_mixture(num_vectors: int, dim: int, num_centers: int, seed: int):
    """Clustered synthetic embeddings (gaussian mixture), like real features."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_centers, dim)) * 4.0
    assign = rng.integers(0, num_centers, size=num_vectors)
    vectors = centers[assign] + rng.standard_normal((num_vectors, dim))
    return vectors, centers


def make_queries(centers: np.ndarray, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    assign = rng.integers(0, centers.shape[0], size=count)
    return centers[assign] + rng.standard_normal((count, centers.shape[1]))


def timed(fn, repeats: int = 3) -> float:
    best = float("inf")
    for __ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def recall_at_k(found: np.ndarray, truth: np.ndarray) -> float:
    hits = sum(
        len(set(f.tolist()) & set(t.tolist()) - {-1}) for f, t in zip(found, truth)
    )
    return hits / truth.size


# --------------------------------------------------------------- ANN quality
def run_size(num_vectors: int, dim: int, num_queries: int, seed: int = 0) -> dict:
    vectors, centers = make_mixture(num_vectors, dim, num_centers=max(64, num_vectors // 400), seed=seed)
    queries = make_queries(centers, num_queries, seed + 1)

    exact = ExactIndex()
    exact.build(vectors)
    truth_d, truth_i = exact.search(queries, K)
    exact_time = timed(lambda: exact.search(queries, K))

    ivf = IVFFlatIndex(seed=seed)
    t0 = time.perf_counter()
    ivf.build(vectors)
    ivf_build = time.perf_counter() - t0
    ivf_d, ivf_i = ivf.search(queries, K)
    ivf_time = timed(lambda: ivf.search(queries, K))

    return {
        "num_vectors": num_vectors,
        "num_queries": num_queries,
        "exact_time": exact_time,
        "ivf_time": ivf_time,
        "ivf_build": ivf_build,
        "ivf_recall": recall_at_k(ivf_i, truth_i),
        "ivf_nlist": ivf.effective_nlist,
        "ivf_nprobe": ivf.nprobe,
    }


# -------------------------------------------------- pre-PR reference (seed)
def seed_pairwise_sq(points, points_sq, centroids):
    """The seed's ``clustering._pairwise_sq_distances`` (pre-PR), verbatim."""
    sq = points_sq[:, None] + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    sq -= 2.0 * (points @ centroids.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def seed_kmeans(points, num_clusters, rng, max_iterations=50, tolerance=1e-6):
    """The seed's brute-force k-means (pre-PR), replicated verbatim."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    k = max(1, min(int(num_clusters), n))
    points_sq = np.einsum("ij,ij->i", points, points)
    centroids = _init_centroids(points, k, rng)
    for __ in range(max_iterations):
        sq_distances = seed_pairwise_sq(points, points_sq, centroids)
        assignments = sq_distances.argmin(axis=1)
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, points)
        new_centroids = centroids.copy()
        occupied = counts > 0
        new_centroids[occupied] = sums[occupied] / counts[occupied, None]
        if not occupied.all():
            farthest = int(sq_distances.min(axis=1).argmax())
            new_centroids[~occupied] = points[farthest]
        shift = float(np.linalg.norm(new_centroids - centroids))
        centroids = new_centroids
        if shift < tolerance:
            break
    final_sq = seed_pairwise_sq(points, points_sq, centroids)
    assignments = final_sq.argmin(axis=1)
    return assignments, centroids, float(np.sum(final_sq[np.arange(n), assignments]))


def seed_coreset_select(features, labeled, count, rng):
    """The seed's CoresetAcquisition.select index arithmetic (pre-PR), verbatim."""
    chosen = []
    count = min(count, features.shape[0])
    if labeled.size:
        distances = np.min(
            np.linalg.norm(features[:, None, :] - labeled[None, :, :], axis=2), axis=1
        )
    else:
        seed = int(rng.integers(0, features.shape[0]))
        chosen.append(seed)
        distances = np.linalg.norm(features - features[seed], axis=1)
        distances[seed] = -np.inf
    while len(chosen) < count:
        next_index = int(np.argmax(distances))
        if not np.isfinite(distances[next_index]) and chosen:
            break
        chosen.append(next_index)
        new_distances = np.linalg.norm(features - features[next_index], axis=1)
        distances = np.minimum(distances, new_distances)
        distances[next_index] = -np.inf
    return chosen


def check_exact_parity(seed: int = 0) -> list[str]:
    """Bit-identity of index-routed selections vs the pre-PR brute force."""
    failures: list[str] = []
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((3000, 32))
    labeled = rng.standard_normal((80, 32))
    candidates = [ClipSpec(i, 0.0, 1.0) for i in range(features.shape[0])]

    # Coreset: with and without labeled points.
    for name, lab in (("labeled", labeled), ("unlabeled", np.empty((0, 0)))):
        context = AcquisitionContext(
            candidates=candidates, candidate_features=features, labeled_features=lab
        )
        new = CoresetAcquisition().select(context, 25, np.random.default_rng(seed + 1))
        old = seed_coreset_select(features, np.asarray(lab, dtype=np.float64), 25,
                                  np.random.default_rng(seed + 1))
        if [candidates[i] for i in old] != new:
            failures.append(f"coreset selections diverged ({name} case)")

    # k-means: assignments, centroids, and inertia bit-for-bit.
    for trial in range(5):
        pts = np.random.default_rng(seed + 10 + trial).standard_normal((600, 16))
        old_a, old_c, old_i = seed_kmeans(pts, 12, np.random.default_rng(trial))
        result = kmeans(pts, 12, rng=np.random.default_rng(trial))
        if not (
            np.array_equal(old_a, result.assignments)
            and np.array_equal(old_c, result.centroids)
            and old_i == result.inertia
        ):
            failures.append(f"kmeans diverged from seed implementation (trial {trial})")

    # Cluster-Margin end to end (kmeans is its only changed dependency).
    context = AcquisitionContext(candidates=candidates, candidate_features=features)
    first = ClusterMarginAcquisition().select(context, 15, np.random.default_rng(seed + 2))
    again = ClusterMarginAcquisition().select(context, 15, np.random.default_rng(seed + 2))
    if first != again:
        failures.append("cluster-margin selections not deterministic")
    return failures


def check_cli_end_to_end() -> list[str]:
    """``repro-vocal search`` runs end to end and charges scheduler latency."""
    import contextlib
    import io

    from repro.cli import main as cli_main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(
            ["search", "--dataset", "deer", "--vid", "0", "--start", "0", "--end", "1",
             "-k", "3", "--backend", "ivf-flat", "--pool-videos", "10"]
        )
    output = buffer.getvalue()
    failures: list[str] = []
    if code != 0:
        failures.append(f"CLI search exited with {code}")
    if "visible latency charged" not in output:
        failures.append("CLI search did not report charged latency")
    else:
        latency = float(output.rsplit("visible latency charged:", 1)[1].split("s")[0])
        if latency <= 0:
            failures.append("CLI search charged zero visible latency")
    if "rank" not in output:
        failures.append("CLI search returned no result rows")
    return failures


def report(rows: list[dict]) -> None:
    header = (
        f"{'vectors':>10} {'queries':>8} {'backend':<10} {'recall@10':>10} "
        f"{'search':>10} {'speedup':>8}"
    )
    logger.info(header)
    logger.info("-" * len(header))
    for row in rows:
        base = row["exact_time"]
        logger.info(
            f"{row['num_vectors']:>10,} {row['num_queries']:>8,} {'exact':<10} "
            f"{1.0:>10.3f} {base * 1e3:>8.1f}ms {1.0:>7.1f}x"
        )
        logger.info(
            f"{'':>10} {'':>8} {'ivf':<10} {row['ivf_recall']:>10.3f} "
            f"{row['ivf_time'] * 1e3:>8.1f}ms "
            f"{base / max(row['ivf_time'], 1e-12):>7.1f}x"
            f"   (nlist={row['ivf_nlist']}, nprobe={row['ivf_nprobe']}, "
            f"build={row['ivf_build']:.1f}s)"
        )


def main() -> int:
    telemetry.configure_logging("info", stream=sys.stdout, fmt="%(message)s")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI smoke run")
    parser.add_argument("--dim", type=int, default=64, help="vector dimensionality")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.quick:
        sizes = [(100_000, 100)]
        dim = min(args.dim, 32)
    else:
        sizes = [(10_000, 200), (100_000, 200)]
        dim = args.dim

    rows = [run_size(n, dim, q, seed=args.seed) for n, q in sizes]
    report(rows)

    failures: list[str] = []
    gate = next((r for r in rows if r["num_vectors"] == 100_000), rows[-1])
    speedup = gate["exact_time"] / max(gate["ivf_time"], 1e-12)
    logger.info(f"\nIVF recall@10 at {gate['num_vectors']:,} vectors: {gate['ivf_recall']:.3f} "
          f"(gate >= 0.9)")
    logger.info(f"IVF search speedup over exact: {speedup:.1f}x (gate >= 5x)")
    if gate["ivf_recall"] < 0.9:
        failures.append("IVF recall@10 below 0.9 at default nprobe")
    if speedup < 5.0:
        failures.append("IVF search less than 5x faster than exact")

    parity = check_exact_parity(seed=args.seed)
    logger.info("exact-path parity (coreset / kmeans / cluster-margin): "
          + ("OK" if not parity else "; ".join(parity)))
    failures.extend(parity)

    cli = check_cli_end_to_end()
    logger.info("CLI end-to-end search: " + ("OK" if not cli else "; ".join(cli)))
    failures.extend(cli)

    if failures:
        logger.info("\nFAIL: " + "; ".join(failures))
        return 1
    logger.info("\nPASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
