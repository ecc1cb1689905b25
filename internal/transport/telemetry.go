package transport

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Telemetry queries: each renders a diagnostic document from simulated
// state, in the shapes the paper's Figure 6 shows (probe logs, exception
// stacks, socket tables), and charges a modelled virtual cost that stands in
// for the latency of the production telemetry backend.
//
// The queries live on the per-run execution context (Exec): the cost lands
// in the run's own sink and virtual time advances on the run's own clock
// view, so concurrent handler runs never interleave their accounting.
// Sequential callers query through the fleet's ambient context
// (Fleet.Ambient).

// ProbeLog renders the recent synthetic-probe results for a machine,
// matching the DatacenterHubOutboundProxyProbe log of Figure 6.
func (e *Exec) ProbeLog(machine string) (string, error) {
	f := e.fleet
	m, ok := f.Machine(machine)
	if !ok {
		return "", fmt.Errorf("transport: unknown machine %q", machine)
	}
	e.charge("probe-log", 1500*time.Millisecond)

	var b strings.Builder
	failed := 0
	for _, p := range m.Probes {
		if p.Level == "Error" {
			failed++
		}
	}
	fmt.Fprintf(&b, "DatacenterHubOutboundProxyProbe probe log result from %s.\n", m.Name)
	fmt.Fprintf(&b, "Total Probes: %d, Failed Probes: %d\n", len(m.Probes), failed)
	b.WriteString("Id Level Created Description\n")
	b.WriteString("-- ----- ------- -----------\n")
	for i, p := range m.Probes {
		fmt.Fprintf(&b, "%d %s %s %s\n", i+1, p.Level, p.At.Format("1/2/2006 3:04:05 PM"), p.Message)
	}
	return b.String(), nil
}

// SocketMetrics renders the machine's UDP socket table grouped by process,
// top five consumers first (Figure 6's bottom block).
func (e *Exec) SocketMetrics(machine string) (string, error) {
	f := e.fleet
	m, ok := f.Machine(machine)
	if !ok {
		return "", fmt.Errorf("transport: unknown machine %q", machine)
	}
	e.charge("socket-metrics", 800*time.Millisecond)

	type row struct {
		key   string
		count int
	}
	rows := make([]row, 0, len(m.UDPSockets))
	total := 0
	for k, c := range m.UDPSockets {
		rows = append(rows, row{k, c})
		total += c
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].key < rows[j].key
	})
	var b strings.Builder
	fmt.Fprintf(&b, "Total UDP socket count: %d\n", total)
	b.WriteString("Total UDP socket count by process and processId (top 5 only):\n")
	for i, r := range rows {
		if i == 5 {
			break
		}
		name, pid, _ := strings.Cut(r.key, "/")
		fmt.Fprintf(&b, "%d: %s, %s\n", r.count, name, pid)
	}
	return b.String(), nil
}

// ExceptionStacks renders the most recent exception stack traces observed on
// a machine (middle block of Figure 6). Healthy machines report none.
func (e *Exec) ExceptionStacks(machine string) (string, error) {
	f := e.fleet
	m, ok := f.Machine(machine)
	if !ok {
		return "", fmt.Errorf("transport: unknown machine %q", machine)
	}
	e.charge("exception-stacks", 2*time.Second)

	fo, _ := f.Forest(m.Forest)
	var b strings.Builder
	b.WriteString("Exceptions:\n")
	n := 0
	if fo != nil {
		for _, c := range fo.Crashes {
			if c.Machine != m.Name {
				continue
			}
			n++
			fmt.Fprintf(&b, "%s in module %s\n", c.Exception, c.Module)
			fmt.Fprintf(&b, "  at %s.Execute(...)\n  at %s!WorkerLoop()\n", c.Module, c.Process)
		}
	}
	for _, p := range m.Probes {
		if p.Level != "Error" {
			continue
		}
		n++
		fmt.Fprintf(&b, "InformativeSocketException: %s\n", p.Message)
		b.WriteString("  at TcpClientFactory.Create(...)\n  at SimpleSmtpClient.Connect(...)\n")
	}
	if n == 0 {
		b.WriteString("(none observed in the last hour)\n")
	}
	return b.String(), nil
}

// ThreadStackGrouping aggregates threads with identical stacks in the target
// process, the analog of the paper's Get-ThreadStackGrouping.ps1 script used
// to surface deadlocks and blocking code paths.
func (e *Exec) ThreadStackGrouping(machine, process string) (string, error) {
	f := e.fleet
	m, ok := f.Machine(machine)
	if !ok {
		return "", fmt.Errorf("transport: unknown machine %q", machine)
	}
	e.charge("thread-stacks", 4*time.Second)

	var proc *Process
	for _, p := range m.Procs {
		if p.Name == process {
			proc = p
			break
		}
	}
	if proc == nil {
		return "", fmt.Errorf("transport: no process %q on %s", process, machine)
	}
	groups := make(map[string][]int)
	for _, t := range proc.Threads {
		key := t.State + "|" + strings.Join(t.Frames, ";")
		groups[key] = append(groups[key], t.TID)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(groups[keys[i]]) != len(groups[keys[j]]) {
			return len(groups[keys[i]]) > len(groups[keys[j]])
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "There are %d managed threads in process %s on %s.\n", len(proc.Threads), proc.Name, m.Name)
	for _, k := range keys {
		state, frames, _ := strings.Cut(k, "|")
		fmt.Fprintf(&b, "Group of %d threads [%s]:\n", len(groups[k]), state)
		for _, fr := range strings.Split(frames, ";") {
			fmt.Fprintf(&b, "  at %s\n", fr)
		}
	}
	return b.String(), nil
}

// QueueMetrics renders submission/delivery queue depths for every machine
// in the forest.
func (e *Exec) QueueMetrics(forest string) (string, error) {
	f := e.fleet
	fo, ok := f.Forest(forest)
	if !ok {
		return "", fmt.Errorf("transport: unknown forest %q", forest)
	}
	e.charge("queue-metrics", 1200*time.Millisecond)

	var b strings.Builder
	fmt.Fprintf(&b, "Queue depths for forest %s:\n", fo.Name)
	for _, m := range fo.Machines {
		fmt.Fprintf(&b, "%s Submission=%d Delivery=%d\n", m.Name, m.Queues["Submission"], m.Queues["Delivery"])
	}
	lim := f.cfg.Limits
	for _, m := range fo.Machines {
		if m.Queues["Delivery"] > lim.MaxDeliveryQueue {
			fmt.Fprintf(&b, "WARNING: number of messages queued for mailbox delivery on %s exceeded the limit %d\n",
				m.Name, lim.MaxDeliveryQueue)
		}
		if m.Queues["Submission"] > lim.MaxSubmissionQueue {
			fmt.Fprintf(&b, "WARNING: messages stuck in submission queue on %s beyond limit %d\n",
				m.Name, lim.MaxSubmissionQueue)
		}
	}
	return b.String(), nil
}

// DiskUsage renders per-volume utilization for a machine.
func (e *Exec) DiskUsage(machine string) (string, error) {
	f := e.fleet
	m, ok := f.Machine(machine)
	if !ok {
		return "", fmt.Errorf("transport: unknown machine %q", machine)
	}
	e.charge("disk-usage", 600*time.Millisecond)

	vols := make([]string, 0, len(m.DiskUsedPct))
	for v := range m.DiskUsedPct {
		vols = append(vols, v)
	}
	sort.Strings(vols)
	var b strings.Builder
	fmt.Fprintf(&b, "Disk usage on %s:\n", m.Name)
	for _, v := range vols {
		pct := m.DiskUsedPct[v]
		fmt.Fprintf(&b, "%s %.1f%% used", v, pct)
		if pct >= f.cfg.Limits.MaxDiskUsedPct {
			b.WriteString("  ** volume is full; IO exceptions likely **")
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

// CrashEvents renders the forest-wide crash record.
func (e *Exec) CrashEvents(forest string) (string, error) {
	f := e.fleet
	fo, ok := f.Forest(forest)
	if !ok {
		return "", fmt.Errorf("transport: unknown forest %q", forest)
	}
	e.charge("crash-events", 2500*time.Millisecond)

	var b strings.Builder
	fmt.Fprintf(&b, "Crash events in forest %s (last 24h): %d\n", fo.Name, len(fo.Crashes))
	for _, c := range fo.Crashes {
		fmt.Fprintf(&b, "%s %s %s: %s in %s\n",
			c.At.Format("15:04:05"), c.Machine, c.Process, c.Exception, c.Module)
	}
	if len(fo.Crashes) == 0 {
		b.WriteString("(no crashes recorded)\n")
	}
	return b.String(), nil
}

// CertInventory renders the forest's certificate table, flagging invalid
// entries (AuthCertIssue surfaces here).
func (e *Exec) CertInventory(forest string) (string, error) {
	f := e.fleet
	fo, ok := f.Forest(forest)
	if !ok {
		return "", fmt.Errorf("transport: unknown forest %q", forest)
	}
	e.charge("cert-inventory", 1800*time.Millisecond)

	var b strings.Builder
	fmt.Fprintf(&b, "Certificates installed in forest %s:\n", fo.Name)
	for _, c := range fo.Certs {
		status := "valid"
		if !c.Valid {
			status = "INVALID"
		}
		kind := "smtp"
		if c.IsAuthCert {
			kind = "auth"
		}
		fmt.Fprintf(&b, "%s [%s] %s domain=%s notAfter=%s status=%s\n",
			c.Thumbprint[:12], kind, c.Subject, c.Domain, c.NotAfter.Format("2006-01-02"), status)
		if !c.Valid && c.IsAuthCert {
			b.WriteString("  tokens for requesting services cannot be created with this certificate\n")
		}
	}
	return b.String(), nil
}

// TenantConnectors renders per-tenant SMTP connector counts, flagging
// suspicious volumes from recently created tenants.
func (e *Exec) TenantConnectors(forest string) (string, error) {
	f := e.fleet
	fo, ok := f.Forest(forest)
	if !ok {
		return "", fmt.Errorf("transport: unknown forest %q", forest)
	}
	e.charge("tenant-connectors", 2200*time.Millisecond)

	var b strings.Builder
	total, bogus := 0, 0
	for _, t := range fo.Tenants {
		total += t.Connectors
		if t.Bogus {
			bogus++
		}
	}
	fmt.Fprintf(&b, "Forest %s: %d tenants, %d connectors total, %d flagged-bogus tenants\n",
		fo.Name, len(fo.Tenants), total, bogus)
	for _, t := range fo.Tenants {
		if t.Bogus {
			fmt.Fprintf(&b, "SUSPICIOUS: tenant %s created recently with %d connectors using a certificate domain\n",
				t.Name, t.Connectors)
		}
		if !t.ConfigValid {
			fmt.Fprintf(&b, "INVALID CONFIG: tenant %s Transport config raised TenantSettingsNotFoundException\n", t.Name)
		}
	}
	return b.String(), nil
}

// ComponentAvailability renders forest component availability counters.
func (e *Exec) ComponentAvailability(forest string) (string, error) {
	f := e.fleet
	fo, ok := f.Forest(forest)
	if !ok {
		return "", fmt.Errorf("transport: unknown forest %q", forest)
	}
	e.charge("component-availability", 900*time.Millisecond)

	var b strings.Builder
	fmt.Fprintf(&b, "Component availability in forest %s:\n", fo.Name)
	fmt.Fprintf(&b, "SmtpAuth availability: %.4f\n", fo.AuthAvailability)
	fmt.Fprintf(&b, "AuthService reachable: %t\n", fo.AuthReachable)
	fmt.Fprintf(&b, "TokenService healthy: %t\n", fo.TokenServiceHealthy)
	if fo.AuthAvailability < f.cfg.Limits.MinAuthAvailability {
		b.WriteString("ALERT: an SMTP authentication component's availability dropped below target\n")
	}
	if !fo.AuthReachable {
		b.WriteString("network problem: dispatcher tasks cancelled because the authentication service is unreachable\n")
	}
	if !fo.TokenServiceHealthy {
		b.WriteString("tokens for requesting services were not able to be created\n")
	}
	return b.String(), nil
}

// ConfigDump renders the forest configuration-service state.
func (e *Exec) ConfigDump(forest string) (string, error) {
	f := e.fleet
	fo, ok := f.Forest(forest)
	if !ok {
		return "", fmt.Errorf("transport: unknown forest %q", forest)
	}
	e.charge("config-dump", 700*time.Millisecond)

	keys := make([]string, 0, len(fo.Config))
	for k := range fo.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "Configuration service state for %s (healthy=%t):\n", fo.Name, fo.ConfigServiceHealthy)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s = %s\n", k, fo.Config[k])
	}
	if !fo.ConfigServiceHealthy {
		b.WriteString("ERROR: configuration service was unable to update the settings; dependent processes crashed\n")
	}
	return b.String(), nil
}

// DNSResolution renders a DNS health check from a machine, which fails when
// UDP source ports are exhausted (HubPortExhaustion).
func (e *Exec) DNSResolution(machine string) (string, error) {
	f := e.fleet
	m, ok := f.Machine(machine)
	if !ok {
		return "", fmt.Errorf("transport: unknown machine %q", machine)
	}
	e.charge("dns-check", 400*time.Millisecond)

	if m.DNSHealthy {
		return fmt.Sprintf("DNS resolution from %s: OK (resolved smtp relay in 12ms)\n", m.Name), nil
	}
	return fmt.Sprintf("DNS resolution from %s: FAILED\nName: No such host is known.\nA WinSock error: 11001 encountered when connecting to host: smtp-relay.prod.outlook.example\n", m.Name), nil
}

// DeliveryHealth reports whether the forest's delivery service is keeping up
// and whether it was restarted recently (the Figure 5 handler's check).
func (e *Exec) DeliveryHealth(forest string) (string, error) {
	f := e.fleet
	fo, ok := f.Forest(forest)
	if !ok {
		return "", fmt.Errorf("transport: unknown forest %q", forest)
	}
	e.charge("delivery-health", 1100*time.Millisecond)

	var b strings.Builder
	fmt.Fprintf(&b, "Delivery health for forest %s:\n", fo.Name)
	for _, m := range fo.MachinesByRole(RoleMailbox) {
		status := "healthy"
		if m.Queues["Delivery"] > f.cfg.Limits.MaxDeliveryQueue {
			status = "HANGING: mailbox delivery service hang for a long time"
		}
		fmt.Fprintf(&b, "%s delivery=%d status=%s restartedRecently=%t\n",
			m.Name, m.Queues["Delivery"], status, m.RestartedRecently)
	}
	return b.String(), nil
}

// TraceSample renders a short request-flow trace across the forest's tiers,
// annotated with the first failing hop if any.
func (e *Exec) TraceSample(forest string) (string, error) {
	f := e.fleet
	fo, ok := f.Forest(forest)
	if !ok {
		return "", fmt.Errorf("transport: unknown forest %q", forest)
	}
	e.charge("trace-sample", 1600*time.Millisecond)

	fd := fo.MachinesByRole(RoleFrontDoor)
	hb := fo.MachinesByRole(RoleHub)
	mb := fo.MachinesByRole(RoleMailbox)
	var b strings.Builder
	fmt.Fprintf(&b, "Request trace (SMTP SEND) in forest %s:\n", fo.Name)
	if len(fd) > 0 {
		status := "200 OK 8ms"
		if !fd[0].DNSHealthy {
			status = "FAIL WinSock 11001 (host unknown) 1500ms"
		} else if fd[0].OutboundProxyConns > f.cfg.Limits.MaxProxyConns {
			status = "FAIL proxy connection refused: concurrent server connections exceeded a limit"
		}
		fmt.Fprintf(&b, "  frontdoor %s -> %s\n", fd[0].Name, status)
	}
	if len(hb) > 0 {
		status := "accepted 5ms"
		if hb[0].Queues["Submission"] > f.cfg.Limits.MaxSubmissionQueue {
			status = "queued (submission backlog)"
		}
		fmt.Fprintf(&b, "  hub %s -> %s\n", hb[0].Name, status)
	}
	if len(mb) > 0 {
		status := "delivered 11ms"
		if mb[0].Queues["Delivery"] > f.cfg.Limits.MaxDeliveryQueue {
			status = "pending (delivery backlog)"
		}
		fmt.Fprintf(&b, "  mailbox %s -> %s\n", mb[0].Name, status)
	}
	return b.String(), nil
}

// ProvisioningStatus renders the common new-incident check the paper
// mentions (evaluating provisioning status) for a forest.
func (e *Exec) ProvisioningStatus(forest string) (string, error) {
	f := e.fleet
	fo, ok := f.Forest(forest)
	if !ok {
		return "", fmt.Errorf("transport: unknown forest %q", forest)
	}
	e.charge("provisioning-status", 500*time.Millisecond)
	return fmt.Sprintf("Provisioning status for %s: %d/%d machines in service, build %s\n",
		fo.Name, len(fo.Machines), len(fo.Machines), fo.Config["TransportConfigVersion"]), nil
}
