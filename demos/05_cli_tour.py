"""Every CLI subcommand, driven in-process against a temp directory.

The same grammar works from a shell once the package is installed:

    deepkm run --dataset blobs:n=200,k=3,dim=10 --method ours --epochs 20
    deepkm suite --dataset ... --methods km,aekm,ours --seeds 0,1,2
    deepkm eval --pred pred.txt --truth truth.txt
    deepkm project --dataset ... --method ours
"""

import atexit
import shutil
import tempfile
from pathlib import Path

from deepkm.cli import main

out = Path(tempfile.mkdtemp(prefix="deepkm-cli-"))
atexit.register(shutil.rmtree, out, ignore_errors=True)
dataset = "blobs:n=60,k=3,dim=10,sep=8.0,seed=1"
fast = ["--pretrain-epochs", "2", "--epochs", "3", "--batch-size", "32",
        "--latent-dim", "3", "--hidden-dims", "16", "--k", "3"]

print("== run ==")
main(["run", "--dataset", dataset, "--method", "ours", "--out", str(out / "run"), *fast])

print("\n== suite ==")
main(["suite", "--dataset", dataset, "--methods", "km,aekm,ours",
      "--seeds", "0,1", "--out", str(out / "suite"), *fast])
print((out / "suite" / "suite.tsv").read_text())

print("== eval ==")
(out / "pred.txt").write_text("0\n0\n1\n1\n2\n2\n")
(out / "truth.txt").write_text("2\n2\n0\n0\n1\n1\n")
main(["eval", "--pred", str(out / "pred.txt"), "--truth", str(out / "truth.txt")])

print("\n== project ==")
main(["project", "--dataset", dataset, "--method", "ours",
      "--out", str(out / "proj"), *fast])
head = (out / "proj" / "ours_seed0_projection.tsv").read_text().splitlines()[:4]
print("first projection rows:")
for line in head:
    print(" ", line)

print(f"\nartifacts were written under {out}, which is removed on exit")
