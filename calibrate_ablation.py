"""Scratch calibration for the connectivity ablation experiment (not shipped)."""
import sys
import time

import numpy as np

from onigraph.centrality import eigenvector_centrality
from onigraph.data import prepare_dataset, synth_teleconnection_dataset
from onigraph.model import model_adjacency
from onigraph.training import TrainConfig, build_model, evaluate, model_config_from_preset, train


def run(n_lat, n_lon, months, lead, noise, background, epochs, dims, seeds, embed=32, tf=0.8):
    results = []
    t0 = time.time()
    for seed in seeds:
        grid, spec = synth_teleconnection_dataset(
            n_lat, n_lon, months, lead, seed=seed, noise_sd=noise, background_sd=background
        )
        bundle = prepare_dataset(grid, window=3, lead=lead, train_fraction=tf)
        row = {"seed": seed}
        for edges in ("learned", "local"):
            cfg = TrainConfig(seed=seed, lead_months=lead, epochs=epochs, embed_dim=embed)
            mc = model_config_from_preset("gcn2a", lead_months=lead, layer_dims=list(dims))
            state = build_model(bundle, mc, cfg, edge_mode=edges)
            train(state, bundle.train, cfg)
            row[edges] = evaluate(state, bundle.test).r
            if edges == "learned":
                # transposed: rank the nodes the graph reads from
                cent = eigenvector_centrality(model_adjacency(state).data.T)
                order = np.argsort(-cent.scores)
                rank_of = np.empty(len(order), dtype=int)
                rank_of[order] = np.arange(1, len(order) + 1)
                driver_nodes = [
                    int(np.flatnonzero((bundle.nodes.cells[:, 0] == r) & (bundle.nodes.cells[:, 1] == c))[0])
                    for r, c in spec.driver_cells
                ]
                row["mean_rank"] = float(np.mean(rank_of[driver_nodes]))
                row["n_nodes"] = bundle.nodes.count
        results.append(row)
        print(
            f"  seed={seed}: learned={row['learned']:.4f} local={row['local']:.4f} "
            f"gap={row['learned']-row['local']:.4f} driver_rank={row['mean_rank']:.1f}/{row['n_nodes']}"
        )
    ml = np.mean([r["learned"] for r in results])
    mo = np.mean([r["local"] for r in results])
    top_decile = sum(1 for r in results if r["mean_rank"] <= r["n_nodes"] / 10)
    print(
        f"  MEAN learned={ml:.4f} local={mo:.4f} gap={ml-mo:.4f} "
        f"rank_in_top_decile={top_decile}/{len(seeds)}  [{time.time()-t0:.0f}s]"
    )
    return ml, mo, top_decile


if __name__ == "__main__":
    args = sys.argv[1:]
    preset = args[0] if args else "a"
    if preset == "a":
        print("8x8 T=240 lead=2 noise=0.1 bg=1.0 epochs=60 dims=[32,16]")
        run(8, 8, 240, 2, 0.1, 1.0, 60, (32, 16), (0, 1, 2))
    elif preset == "b":
        print("8x8 T=240 lead=2 noise=0.1 bg=1.0 epochs=120 dims=[32,16]")
        run(8, 8, 240, 2, 0.1, 1.0, 120, (32, 16), (0, 1, 2))
    elif preset == "c":
        print("10x10 T=300 lead=2 noise=0.1 bg=1.0 epochs=80 dims=[32,16]")
        run(10, 10, 300, 2, 0.1, 1.0, 80, (32, 16), (0, 1, 2))
