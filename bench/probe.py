"""Set-up probe: a fresh process that does what ``train`` does before its
first step (import, ``resolve_data``, ``build_network``), then prints the
CPU seconds it has used since it was started.

Usage: python3 bench/probe.py SRC_DIR CONFIG_JSON
"""

import sys
import time


def main() -> None:
    src, config_path = sys.argv[1:3]
    sys.path.insert(0, src)
    import numpy as np

    import fewshot_ibp
    from fewshot_ibp.config import resolve_data

    config = fewshot_ibp.RunConfig.from_file(config_path)
    resolve_data(config)
    init_ss = np.random.SeedSequence(config.seed).spawn(3)[0]
    fewshot_ibp.build_network(
        config.layers, config.split_index, np.random.default_rng(init_ss)
    )
    print(repr(time.process_time()))


if __name__ == "__main__":
    main()
