"""Iceberg-code co-compiler toolkit for QAOA MaxCut circuits.

Modules:
    circuit    -- gate/circuit data model, ASAP layering, depth metrics, text IO
    maxcut     -- problem instances, logical QAOA circuits, energies, brute-force optima
    gadgets    -- fault-tolerant Iceberg gadget constructors and classical maps
    faults     -- exhaustive single-fault Pauli propagation and FT certification
    stabilizer -- signed stabilizer certificate of a circuit's noiseless readout
    simulator  -- dense statevector simulation, stochastic Pauli noise, post-selection
    compiler   -- baseline insertion compiler and the tree-search co-compiler
    bench      -- benchmark sweeps and CSV/plot-data emission
    cli        -- command-line front end
"""

__version__ = "0.1.0"
