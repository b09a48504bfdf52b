"""Dataset substrate.

Stands in for CIFAR-10/100 and ImageNet (see DESIGN.md). The synthetic
generator realizes exactly the sample taxonomy the paper's Fig. 8 builds the
IS algorithm around: well-classified core points, boundary points, isolated
points, and mislabeled points, in controllable proportions.
"""
