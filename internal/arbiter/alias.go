// Package arbiter keeps the one name the repository's benchmark module
// (bench/) imports from it. The shared cluster itself is internal/cloud's
// admission engine configured by cloud.SharedCluster, and its HTTP face is
// internal/server's SharedCluster. The benchmark changes only together
// with its workloads, so the package goes with the next such change
// (ROADMAP item 22).
package arbiter

import "raqo/internal/cloud"

// TenantConfig describes one tenant sharing the cluster.
type TenantConfig = cloud.TenantConfig
