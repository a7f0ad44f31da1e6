package yarn

// TenantContainers returns the number of live (allocated, unreleased)
// worker containers currently charged to the tenant — the quantity
// TenantPolicy.MaxContainers caps. AM containers are exempt.
func (rm *ResourceManager) TenantContainers(tenant string) int {
	return rm.tenantUse[tenant]
}

// RegisteredNodes returns how many nodes the RM currently tracks, including
// dead and draining ones — the quantity the bounded-state regression test
// asserts on.
func (rm *ResourceManager) RegisteredNodes() int { return len(rm.nodes) }
